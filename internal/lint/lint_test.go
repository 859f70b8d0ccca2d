package lint

import "testing"

// The fixture module's findings are stated once, in
// cmd/highrpm-vet/testdata/golden.txt; this file checks only what the
// golden cannot show.

func TestDefaultHasFiveRules(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range Default() {
		if a.Doc() == "" {
			t.Errorf("rule %s has no doc line", a.Name())
		}
		names[a.Name()] = true
	}
	for _, want := range []string{"determinism", "maporder", "floateq", "leakcheck", "errdrop"} {
		if !names[want] {
			t.Errorf("rule %s missing from Default()", want)
		}
	}
	if len(names) != 5 {
		t.Errorf("got %d rules, want 5", len(names))
	}
}
