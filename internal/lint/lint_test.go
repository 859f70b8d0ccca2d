package lint

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fixtureResult loads the fixture module once for every test in this
// file; package discovery shells out to `go list`, so the run is shared.
var (
	fixtureOnce sync.Once
	fixtureRes  *Result
	fixtureErr  error
)

func fixture(t *testing.T) *Result {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureRes, fixtureErr = Run("testdata/fixture", []string{"./..."}, Default())
	})
	if fixtureErr != nil {
		t.Fatalf("Run: %v", fixtureErr)
	}
	if len(fixtureRes.TypeErrors) > 0 {
		t.Fatalf("fixture must type-check cleanly, got: %v", fixtureRes.TypeErrors)
	}
	return fixtureRes
}

// key renders a diagnostic as "rule file:line" with the path relative to
// the fixture root.
func key(d Diagnostic) string {
	name := d.Pos.Filename
	if i := strings.Index(name, "fixture/"); i >= 0 {
		name = name[i+len("fixture/"):]
	}
	return fmt.Sprintf("%s %s:%d", d.Rule, name, d.Pos.Line)
}

func TestFixtureFiresEveryAnalyzer(t *testing.T) {
	res := fixture(t)
	want := []string{
		"errdrop internal/cluster/codec.go:16",
		"errdrop internal/cluster/drop.go:8",
		"leakcheck internal/cluster/svc_test.go:13",
		"determinism internal/core/core.go:14",
		"determinism internal/core/core.go:17",
		"determinism internal/core/core.go:20",
		"lint internal/core/core.go:28",
		"floateq internal/core/core.go:32",
		"maporder internal/core/core.go:37",
		"maporder internal/core/core.go:46",
		"determinism internal/core/cores.go:6",
		"errdrop internal/fleet/router.go:33",
		"errdrop internal/fleet/router.go:38",
		"leakcheck internal/fleet/router_test.go:10",
		"layering internal/mat/mat.go:5",
		"leakcheck internal/obs/obs_test.go:10",
		"errdrop internal/obs/server.go:32",
		"errdrop internal/obs/server.go:37",
		"leakcheck internal/tsdb/store_test.go:10",
		"errdrop internal/tsdb/wal.go:9",
		"leakcheck internal/tsdb/wal_test.go:7",
		"layering internal/util/util.go:4",
	}
	got := make([]string, 0, len(res.Diagnostics))
	for _, d := range res.Diagnostics {
		got = append(got, key(d))
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCleanIdiomsNotFlagged(t *testing.T) {
	res := fixture(t)
	for _, d := range res.Diagnostics {
		switch {
		case d.Rule == "maporder" && d.Pos.Line > 50:
			t.Errorf("collect-then-sort idiom flagged: %s", d)
		case d.Rule == "errdrop" && strings.Contains(d.Pos.Filename, "drop.go") && d.Pos.Line > 10:
			t.Errorf("explicit _ = or defer flagged: %s", d)
		case d.Rule == "errdrop" && strings.Contains(d.Pos.Filename, "obs/server.go") && d.Pos.Line > 38:
			t.Errorf("propagated or deferred close flagged: %s", d)
		case d.Rule == "errdrop" && strings.Contains(d.Pos.Filename, "tsdb/wal.go") && d.Pos.Line > 10:
			t.Errorf("propagated or acknowledged fsync flagged: %s", d)
		case d.Rule == "leakcheck" && !strings.Contains(d.Message, "Leaky"):
			t.Errorf("guarded or pure test flagged: %s", d)
		}
	}
}

func TestSuppressionAndStaleAccounting(t *testing.T) {
	res := fixture(t)
	// The suppressed rand.Intn must not surface as a diagnostic.
	for _, d := range res.Diagnostics {
		if d.Rule == "determinism" && d.Pos.Line == 25 {
			t.Errorf("suppressed finding surfaced: %s", d)
		}
	}
	// Of the fixture's two directives only the floateq one suppresses
	// nothing, and it is reported where it stands.
	var stale []string
	for _, d := range res.Diagnostics {
		if d.Rule == "lint" {
			stale = append(stale, key(d)+" "+d.Message)
		}
	}
	want := "lint internal/core/core.go:28 lint:ignore floateq suppresses nothing; delete the directive"
	if len(stale) != 1 || stale[0] != want {
		t.Errorf("stale directives reported: %q, want [%q]", stale, want)
	}
}

func TestRuleSubset(t *testing.T) {
	var det Analyzer
	for _, a := range Default() {
		if a.Name() == "determinism" {
			det = a
		}
	}
	res, err := Run("testdata/fixture", []string{"./..."}, []Analyzer{det})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Diagnostics) != 4 {
		t.Fatalf("got %d diagnostics, want 4: %v", len(res.Diagnostics), res.Diagnostics)
	}
	for _, d := range res.Diagnostics {
		if d.Rule != "determinism" {
			t.Errorf("unexpected rule %q with subset enabled", d.Rule)
		}
	}
	// The floateq directive's rule did not run, so it is not stale: the
	// subset reports determinism findings and nothing else.
}

func TestDefaultHasSixRules(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range Default() {
		if a.Doc() == "" {
			t.Errorf("rule %s has no doc line", a.Name())
		}
		names[a.Name()] = true
	}
	for _, want := range []string{"determinism", "maporder", "floateq", "leakcheck", "errdrop", "layering"} {
		if !names[want] {
			t.Errorf("rule %s missing from Default()", want)
		}
	}
	if len(names) != 6 {
		t.Errorf("got %d rules, want 6", len(names))
	}
}
