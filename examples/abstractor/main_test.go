package main

import "testing"

// TestRun runs the example end to end, as `go run` does.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
