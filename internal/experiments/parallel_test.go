package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunAndRenderParallel runs two independent experiments concurrently
// through the bounded-semaphore path and checks the rendered output matches
// the serial run exactly — tables must come out in the order the ids were
// given, whatever order the experiments finish in.
func TestRunAndRenderParallel(t *testing.T) {
	cfg := NewConfig(ScaleBench)
	ids := []string{"fig2", "fig1"}

	var serial bytes.Buffer
	if err := RunAndRenderParallel(NewWorkspace(cfg), ids, &serial, 1); err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	if err := RunAndRenderParallel(NewWorkspace(cfg), ids, &par, 2); err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial.String(), par.String())
	}
}

func TestRunAndRenderParallelUnknownID(t *testing.T) {
	cfg := NewConfig(ScaleBench)
	var out bytes.Buffer
	err := RunAndRenderParallel(NewWorkspace(cfg), []string{"nope"}, &out, 4)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-experiment error naming the id, got %v", err)
	}
}
