// Package a exercises the layering analyzer under the body oracle's
// import path (internal/check): it judges bodies by the container format
// alone.
package a

import (
	"bytes"
	"io"

	"repro/internal/asf"
	"repro/internal/client"    // want `internal/check imports repro/internal/client: the body oracle derives a correct body`
	"repro/internal/edgecache" // want `internal/check imports repro/internal/edgecache: the body oracle derives a correct body`
	"repro/internal/media"
	"repro/internal/relay"     // want `internal/check imports repro/internal/relay: the body oracle derives a correct body`
	"repro/internal/streaming" // want `internal/check imports repro/internal/streaming: the body oracle derives a correct body`
)
