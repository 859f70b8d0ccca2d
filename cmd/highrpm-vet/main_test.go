package main

import (
	"bytes"
	"encoding/json"
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

func TestJSONOutput(t *testing.T) {
	out, _, code := runVet(t, "-C", fixtureDir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var parsed struct {
		Diagnostics []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(parsed.Diagnostics) != 21 {
		t.Fatalf("got %d diagnostics, want 21", len(parsed.Diagnostics))
	}
	rules := make(map[string]bool)
	for _, d := range parsed.Diagnostics {
		rules[d.Rule] = true
	}
	for _, want := range []string{"determinism", "maporder", "floateq", "leakcheck", "errdrop", "layering"} {
		if !rules[want] {
			t.Errorf("rule %s missing from JSON output", want)
		}
	}
}

func TestFixIgnoreListsStaleDirectives(t *testing.T) {
	out, _, code := runVet(t, "-C", fixtureDir, "-fix-ignore", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (one stale directive)", code)
	}
	if !strings.Contains(out, "STALE") {
		t.Errorf("listing does not mark the stale directive:\n%s", out)
	}
	if !strings.Contains(out, "2 directives, 1 stale") {
		t.Errorf("listing summary wrong:\n%s", out)
	}
}

func TestRulesFlagSubset(t *testing.T) {
	out, _, code := runVet(t, "-C", fixtureDir, "-rules", "determinism", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d findings, want 4:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, " determinism: ") {
			t.Errorf("unexpected finding with -rules determinism: %s", l)
		}
	}
}

func TestUnknownRuleIsUsageError(t *testing.T) {
	_, errb, code := runVet(t, "-C", fixtureDir, "-rules", "nosuchrule", "./...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown rule") {
		t.Errorf("stderr does not name the unknown rule: %s", errb)
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
