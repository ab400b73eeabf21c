package platform

import (
	"testing"

	"repro/internal/sched"
)

// TestNativeCalibrationAnchors pins the two families of anchors: the
// paper's published numbers (which the discrete-event experiments depend
// on) and the measured kernel numbers from the archived BENCH_*.json runs.
// If a rebenchmark moves the native constants, update them together with
// the archived BENCH json; the paper anchors must never move.
func TestNativeCalibrationAnchors(t *testing.T) {
	if SSECoreGCUPS != 2.71 {
		t.Errorf("SSECoreGCUPS = %v, want the Table III anchor 2.71", SSECoreGCUPS)
	}
	if PaperSSECoreGCUPS != SSECoreGCUPS {
		t.Errorf("PaperSSECoreGCUPS = %v, must alias SSECoreGCUPS = %v", PaperSSECoreGCUPS, SSECoreGCUPS)
	}
	if !(NativeSSECoreGCUPS > EmulatedSSECoreGCUPS) {
		t.Errorf("native (%v GCUPS) must beat emulated (%v GCUPS)", NativeSSECoreGCUPS, EmulatedSSECoreGCUPS)
	}
	if ratio := NativeSSECoreGCUPS / EmulatedSSECoreGCUPS; ratio < 5 {
		t.Errorf("SWAR/emulated ratio = %.2f, want >= 5 (the tier's acceptance bar)", ratio)
	}
	if NativeSSECoreGCUPS >= PaperSSECoreGCUPS {
		t.Errorf("native %v GCUPS should not exceed the paper's hand-tuned SSE %v", NativeSSECoreGCUPS, PaperSSECoreGCUPS)
	}
}

func TestNativeSSEPE(t *testing.T) {
	pe := NativeSSEPE("CPU1")
	if pe.Kind != sched.KindCPU {
		t.Errorf("Kind = %v, want KindCPU", pe.Kind)
	}
	if pe.CellsPerSec != NativeSSECoreGCUPS*1e9 {
		t.Errorf("CellsPerSec = %v, want %v", pe.CellsPerSec, NativeSSECoreGCUPS*1e9)
	}
	if pe.TaskOverhead != SSETaskOverhead || pe.Jitter != DedicatedJitter {
		t.Errorf("overhead/jitter = %v/%v, want the shared SSE values %v/%v",
			pe.TaskOverhead, pe.Jitter, SSETaskOverhead, DedicatedJitter)
	}
}
