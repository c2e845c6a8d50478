package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestOversizeDurableWriteExits1 runs the built command on a durable write
// larger than its connection's redo-log ring. No amount of back-pressure
// makes room for such an entry, so the run must exit 1 with the capacity
// error at once instead of retrying the reservation until it is killed.
func TestOversizeDurableWriteExits1(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "prdmasim")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	spec := filepath.Join(dir, "oversize.json")
	if err := os.WriteFile(spec, []byte(`{"rpc":"WFlush-RPC","objectSize":100000000,"ops":2,"objects":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-f", spec).CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("still running after 30 s: the write retries a reservation that can never succeed")
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "exceeds ring capacity") {
		t.Fatalf("%v, output:\n%s\nwant exit status 1 and the ring-capacity error", err, out)
	}
}
