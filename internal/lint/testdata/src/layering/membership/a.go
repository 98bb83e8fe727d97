// Package a exercises the layering analyzer as
// internal/relay/membership: the decision core may use the wire DTOs
// and the time types, but no HTTP, clock, metrics or store package.
package a

import (
	"net/http"               // want `internal/relay/membership imports net/http: the registry's decision core`
	"net/url"                // parsing a node URL is not HTTP
	"repro/internal/catalog" // want `internal/relay/membership imports repro/internal/catalog`
	"repro/internal/metrics" // want `internal/relay/membership imports repro/internal/metrics`
	"repro/internal/proto"   // the wire DTOs are allowed
	"repro/internal/vclock"  // want `internal/relay/membership imports repro/internal/vclock`
	"repro/internal/vclockx" // a lookalike name is not the clock
	"time"
)
