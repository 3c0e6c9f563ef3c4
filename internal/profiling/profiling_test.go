package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, size %d", p, err, st.Size())
		}
	}
	// No paths: nothing started, nothing written, nothing to fail.
	stop, err = Start("", "")
	if err != nil || stop() != nil {
		t.Fatalf("no-op Start: %v", err)
	}
	if _, err := Start(filepath.Join(dir, "missing", "cpu.prof"), ""); err == nil {
		t.Fatal("unwritable cpu profile path accepted")
	}
}
