package analysis

import (
	"bytes"
	"testing"
)

// TestRepoIsClean is the meta-test behind `make lint`: the full analyzer
// suite must produce zero diagnostics on the real tree. Any new
// violation fails here with the same file:line output swcheck prints,
// so CI catches it even if the Makefile target is skipped.
func TestRepoIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	var buf bytes.Buffer
	n, err := Run(root, []string{"./..."}, All(), &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 0 {
		t.Errorf("swcheck found %d finding(s) on the repository:\n%s", n, buf.String())
	}
}
