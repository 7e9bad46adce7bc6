package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/congestedclique/ccsp"
)

// TestRefusesNaNEpsilon: -eps NaN is outside (0, 1] and the daemon exits
// with ErrInvalidOption instead of serving. A daemon that took it would
// serve until ctx ends and return nil.
func TestRefusesNaNEpsilon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1 2\n1 2 3\n2 3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := run(ctx, []string{"-graph", path, "-eps", "NaN", "-addr", "127.0.0.1:0"})
	if !errors.Is(err, ccsp.ErrInvalidOption) {
		t.Fatalf("ccspd -eps NaN: got %v, want ErrInvalidOption", err)
	}
}
