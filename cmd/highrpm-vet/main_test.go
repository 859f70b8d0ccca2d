package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const fixtureDir = "../../internal/lint/testdata/fixture"

func runVet(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestGoldenFixtureOutput(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, errb, code := runVet(t, "-C", fixtureDir, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb)
	}
	if out != string(golden) {
		t.Errorf("output mismatch:\n--- got ---\n%s--- want ---\n%s", out, golden)
	}
}

// TestStaleDirectiveIsAFinding: the plain run reports a lint:ignore that
// suppresses nothing as a finding of its own, and fails on it.
func TestStaleDirectiveIsAFinding(t *testing.T) {
	out, _, code := runVet(t, "-C", fixtureDir, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	want := "internal/core/core.go:28:1: lint: lint:ignore floateq suppresses nothing; delete the directive\n"
	if !strings.Contains(out, want) {
		t.Errorf("the stale directive is not reported:\n%s", out)
	}
}

// TestRemovedFlagsAreUsageErrors: the tool has one mode; the flags of the
// old ones are usage errors, not silently ignored.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-json"}, {"-fix-ignore"}, {"-rules", "determinism"}} {
		_, errb, code := runVet(t, append(append([]string{"-C", fixtureDir}, args...), "./...")...)
		if code != 2 || !strings.Contains(errb, "flag provided but not defined") {
			t.Errorf("%v: exit code %d, stderr %q; want a usage error", args, code, errb)
		}
	}
}

// TestRealTreeIsClean is the machine-checked form of the repo invariant:
// the shipped tree must carry zero findings (modulo the justified
// lint:ignore annotations it already contains).
func TestRealTreeIsClean(t *testing.T) {
	out, errb, code := runVet(t, "-C", "../..", "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if out != "" {
		t.Errorf("expected no output on the clean tree, got:\n%s", out)
	}
}
