package sw

import (
	"math/rand"
	"strings"
	"testing"
)

func TestSemiGlobalQueryInsideTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := protScheme()
	q := randProtein(rng, 25)
	target := append(append(randProtein(rng, 40), q...), randProtein(rng, 40)...)
	// The query matches perfectly inside the target: score = self score,
	// with the flanks free.
	want := 0
	for _, c := range q {
		want += s.Matrix.Score(c, c)
	}
	a := AlignSemiGlobal(q, target, s)
	if a.Score != want {
		t.Fatalf("score = %d, want %d", a.Score, want)
	}
	if a.TargetStart != 40 || a.TargetEnd != 65 {
		t.Errorf("target window = [%d,%d), want [40,65)", a.TargetStart, a.TargetEnd)
	}
	if a.QueryStart != 0 || a.QueryEnd != len(q) {
		t.Errorf("query window = [%d,%d)", a.QueryStart, a.QueryEnd)
	}
	if got := ScoreSemiGlobal(q, target, s); got != want {
		t.Errorf("ScoreSemiGlobal = %d, want %d", got, want)
	}
}

func TestSemiGlobalAlignAgreesWithScore(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := protScheme()
	for iter := 0; iter < 80; iter++ {
		q := randProtein(rng, 1+rng.Intn(40))
		d := randProtein(rng, 1+rng.Intn(120))
		a := AlignSemiGlobal(q, d, s)
		if got := ScoreSemiGlobal(q, d, s); got != a.Score {
			t.Fatalf("iter %d: traceback %d != score-only %d", iter, a.Score, got)
		}
		// The rows must spell the full query and the claimed target window.
		if strings.ReplaceAll(string(a.QueryRow), "-", "") != string(q) {
			t.Fatalf("iter %d: query row does not spell the query", iter)
		}
		if strings.ReplaceAll(string(a.TargetRow), "-", "") != string(d[a.TargetStart:a.TargetEnd]) {
			t.Fatalf("iter %d: target rows/coords inconsistent", iter)
		}
		re, err := a.Rescore(s)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if re != a.Score {
			t.Fatalf("iter %d: rescore %d != %d", iter, re, a.Score)
		}
	}
}

func TestSemiGlobalOrderings(t *testing.T) {
	// local >= semiglobal (free everything beats forced query), and
	// semiglobal >= global (free target ends beat forced ends).
	rng := rand.New(rand.NewSource(22))
	s := protScheme()
	for iter := 0; iter < 60; iter++ {
		q := randProtein(rng, 1+rng.Intn(40))
		d := randProtein(rng, 1+rng.Intn(80))
		local := Score(q, d, s)
		semi := ScoreSemiGlobal(q, d, s)
		global := AlignGlobal(q, d, s).Score
		if semi > local {
			t.Fatalf("iter %d: semiglobal %d > local %d", iter, semi, local)
		}
		if global > semi {
			t.Fatalf("iter %d: global %d > semiglobal %d", iter, global, semi)
		}
	}
}

func TestSemiGlobalEmptyInputs(t *testing.T) {
	s := protScheme()
	a := AlignSemiGlobal(nil, []byte("ACD"), s)
	if a.Score != 0 || len(a.QueryRow) != 0 {
		t.Errorf("empty query: %+v", a)
	}
	// Empty target: the whole query becomes one costly gap.
	a = AlignSemiGlobal([]byte("ACD"), nil, s)
	want := -(s.Gap.Open + 3*s.Gap.Extend)
	if a.Score != want {
		t.Errorf("empty target score = %d, want %d", a.Score, want)
	}
	if got := ScoreSemiGlobal([]byte("ACD"), nil, s); got != want {
		t.Errorf("ScoreSemiGlobal empty target = %d, want %d", got, want)
	}
}
