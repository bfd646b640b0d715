package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// moduleRoot walks up from the working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// build compiles the nestlint binary once per test run.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "nestlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/nestlint")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// seedModule writes src as internal/cfs/<file> of a fresh one-package
// module named like this one, so the package sits inside the
// deterministic scope and a seeded finding never touches the real tree
// that other tests load in parallel. It returns the module root.
func seedModule(t *testing.T, file, src string) string {
	t.Helper()
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "cfs")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module repro\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, file), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the nestlint binary")
	}
	bin := build(t)
	root := moduleRoot(t)

	t.Run("VersionProbe", func(t *testing.T) {
		// go vet's tool-ID probe requires "<name> version <id>".
		out, err := exec.Command(bin, "-V=full").Output()
		if err != nil {
			t.Fatal(err)
		}
		want := "nestlint version " + analysis.Version + "\n"
		if string(out) != want {
			t.Errorf("-V=full = %q, want %q", out, want)
		}
	})

	t.Run("List", func(t *testing.T) {
		out, err := exec.Command(bin, "-list").Output()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range analysis.Suite() {
			if !strings.Contains(string(out), a.Name) {
				t.Errorf("-list output missing analyzer %s:\n%s", a.Name, out)
			}
		}
		if got, want := len(strings.Split(strings.TrimSpace(string(out)), "\n")), len(analysis.Suite()); got != want {
			t.Errorf("-list printed %d lines, want %d", got, want)
		}
	})

	t.Run("CleanRepoExitsZero", func(t *testing.T) {
		cmd := exec.Command(bin, "-C", root, "./...")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("nestlint ./... on clean repo failed: %v\n%s", err, out)
		}
	})

	t.Run("JSONOnCleanPackage", func(t *testing.T) {
		out, err := exec.Command(bin, "-C", root, "-json", "./internal/sim").Output()
		if err != nil {
			t.Fatalf("nestlint -json ./internal/sim: %v", err)
		}
		var diags []analysis.Diagnostic
		if err := json.Unmarshal(out, &diags); err != nil {
			t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out)
		}
		if len(diags) != 0 {
			t.Errorf("clean package produced %d diagnostics: %+v", len(diags), diags)
		}
	})

	t.Run("SARIFOnCleanPackage", func(t *testing.T) {
		out, err := exec.Command(bin, "-C", root, "-sarif", "./internal/sim").Output()
		if err != nil {
			t.Fatalf("nestlint -sarif ./internal/sim: %v", err)
		}
		var log struct {
			Version string `json:"version"`
			Runs    []struct {
				Results []any `json:"results"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(out, &log); err != nil {
			t.Fatalf("-sarif output is not valid JSON: %v\n%s", err, out)
		}
		if log.Version != "2.1.0" || len(log.Runs) != 1 {
			t.Fatalf("-sarif output is not a single-run SARIF 2.1.0 log:\n%s", out)
		}
		if log.Runs[0].Results == nil || len(log.Runs[0].Results) != 0 {
			t.Errorf("clean package produced SARIF results: %v", log.Runs[0].Results)
		}
	})

	t.Run("JSONAndSARIFExclusive", func(t *testing.T) {
		err := exec.Command(bin, "-json", "-sarif", "./internal/sim").Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("-json -sarif together: err=%v, want exit status 2", err)
		}
	})

	t.Run("UnusedDirectiveExitsOne", func(t *testing.T) {
		// A reasoned //lint: comment that suppresses nothing must fail
		// the run under -unused-directives and pass without it.
		src := "package cfs\n\n//lint:simtime justified once, code since rewritten\nvar lintSeedStale int\n"
		mod := seedModule(t, "lintseed_stale_directive.go", src)
		if out, err := exec.Command(bin, "-C", mod, "./internal/cfs").CombinedOutput(); err != nil {
			t.Fatalf("stale directive failed the run without -unused-directives: %v\n%s", err, out)
		}
		cmd := exec.Command(bin, "-C", mod, "-unused-directives", "./internal/cfs")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("-unused-directives on stale comment: err=%v, want exit status 1\n%s", err, out)
		}
		if !strings.Contains(string(out), "unused-directive") || !strings.Contains(string(out), "lintseed_stale_directive.go:3") {
			t.Errorf("diagnostic missing pseudo-analyzer name or file:line of the stale comment:\n%s", out)
		}
	})

	t.Run("SeededViolationExitsOne", func(t *testing.T) {
		// A wall-clock call seeded into a cfs package must fail the run —
		// the same behavior the CI lint job relies on.
		src := "package cfs\n\nimport \"time\"\n\nfunc lintSeedViolation() time.Time { return time.Now() }\n"
		mod := seedModule(t, "lintseed_test_violation.go", src)
		cmd := exec.Command(bin, "-C", mod, "./internal/cfs")
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("seeded violation: err=%v, want exit status 1\n%s", err, out)
		}
		if !strings.Contains(string(out), "simtime") || !strings.Contains(string(out), "time.Now") {
			t.Errorf("diagnostic missing analyzer name or call site:\n%s", out)
		}
	})
}
