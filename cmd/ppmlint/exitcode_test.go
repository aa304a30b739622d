package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildLint compiles the ppmlint binary into a temp dir once per test
// run.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ppmlint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building ppmlint: %v\n%s", err, out)
	}
	return bin
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running ppmlint: %v", err)
	}
	return ee.ExitCode()
}

// TestExitCodePolicy: findings exit 1, harness errors exit 2 — so a red
// lint job is diagnosable from its exit status alone.
func TestExitCodePolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ppmlint binary")
	}
	bin := buildLint(t)

	// Harness errors: bad invocation, missing config, malformed config.
	badCfg := filepath.Join(t.TempDir(), "bad.cfg")
	if err := os.WriteFile(badCfg, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"not-a-config"},
		{filepath.Join(t.TempDir(), "missing.cfg")},
		{badCfg},
	} {
		if code := exitCode(t, exec.Command(bin, args...).Run()); code != 2 {
			t.Errorf("ppmlint %v: exit %d, want 2 (harness error)", args, code)
		}
	}

	// Findings: a synthetic single-file unit with a raw go statement
	// must exit 1 (and a clean unit 0).
	dir := t.TempDir()
	dirty := filepath.Join(dir, "dirty.go")
	if err := os.WriteFile(dirty, []byte("package p\n\nfunc f() { go f() }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(dir, "clean.go")
	if err := os.WriteFile(clean, []byte("package q\n\nfunc g() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, file, pkg string
		want            int
	}{
		{"finding", dirty, "p", 1},
		{"clean", clean, "q", 0},
	} {
		cfg := map[string]interface{}{
			"ID":         tc.pkg,
			"Compiler":   "gc",
			"Dir":        dir,
			"ImportPath": tc.pkg,
			"GoFiles":    []string{tc.file},
			"ImportMap":  map[string]string{},
			"VetxOutput": filepath.Join(dir, tc.pkg+".vetx"),
		}
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfgPath := filepath.Join(dir, tc.pkg+".cfg")
		if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, runErr := exec.Command(bin, cfgPath).CombinedOutput()
		if code := exitCode(t, runErr); code != tc.want {
			t.Errorf("%s unit: exit %d, want %d\noutput:\n%s", tc.name, code, tc.want, out)
		}
	}
}
