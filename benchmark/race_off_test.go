//go:build !race

package main

import "time"

// quickWindow is the window TestQuickRun measures.
const quickWindow = 300 * time.Millisecond
