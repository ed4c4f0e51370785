package xrefine_test

import (
	"os/exec"
	"testing"
)

// TestBenchCompiles vets the benchmark module in bench/, which the root
// module's `go test ./...` does not build: a change to an API the benchmark
// imports fails here, not only when the benchmark next runs.
func TestBenchCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	if out, err := exec.Command(goBin, "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
