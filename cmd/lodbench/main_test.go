package main

import "testing"

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-exp", "E2"}); err != nil {
		t.Fatalf("run -exp E2: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "E99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}
