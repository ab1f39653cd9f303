package smistudy_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"smistudy/internal/runner"
)

// TestFastPathModelRejected: the fast path has exactly two modes, off
// and auto. "model" is a parse error, and every CLI that takes
// -fastpath treats it as a usage error (exit 2).
func TestFastPathModelRejected(t *testing.T) {
	if _, err := runner.ParseFastPathMode("model"); err == nil {
		t.Fatal(`ParseFastPathMode("model") succeeded, want an error`)
	}
	for _, mode := range []string{"", "off", "auto"} {
		if _, err := runner.ParseFastPathMode(mode); err != nil {
			t.Fatalf("ParseFastPathMode(%q): %v", mode, err)
		}
	}

	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; CLI exit codes not checked")
	}
	bin := t.TempDir()
	clis := []string{"smibench", "smisim", "smivalidate", "smiserve"}
	build := exec.Command(goTool, "build", "-o", bin)
	for _, name := range clis {
		build.Args = append(build.Args, "./cmd/"+name)
	}
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build CLIs: %v\n%s", err, out)
	}
	for _, name := range clis {
		var stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), "-fastpath", "model")
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s -fastpath model: %v, want exit status 2 (stderr: %s)", name, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "fast-path mode") {
			t.Errorf("%s -fastpath model: stderr %q does not name the bad mode", name, stderr.String())
		}
	}
}
