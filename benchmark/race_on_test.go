//go:build race

package main

import "time"

// quickWindow is the window TestQuickRun measures. The race detector
// slows a session tenfold, so the window grows with it.
const quickWindow = 3 * time.Second
