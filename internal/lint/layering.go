package lint

import "strings"

// Layering keeps the client stack single: internal/client is the only
// code that opens a stream, the player only renders what it is handed,
// and the server tier (internal/relay) holds no client code. It also
// keeps the registry's decision core (internal/relay/membership) free
// of HTTP, clocks, metrics and the durable store, and the body oracle
// (internal/check) free of the code it judges. A small
// table of imports each constrained package's non-test files may not
// have; every other package, cmd/ and benchmark/ included, may import
// what it likes.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "one client stack: relay imports no client code, player no net/http, client no server tier; the membership core no side effects; the body oracle none of the code it judges",
	Run:  runLayering,
}

// layerRules are the forbidden imports, keyed by the constrained
// package; paths match as in pathHasSuffix.
var layerRules = []struct {
	pkg       string
	forbidden []string
	why       string
}{
	{"internal/relay", []string{"internal/player", "internal/client"},
		"the server tier holds no client code; internal/client is the one client stack"},
	{"internal/relay/membership", []string{"net/http", "internal/vclock", "internal/metrics", "internal/catalog"},
		"the registry's decision core takes time as an argument and leaves HTTP, metrics and the store to relay.Registry"},
	{"internal/player", []string{"net/http"},
		"the player does no networking; internal/client opens streams and hands it the body"},
	{"internal/client", []string{"internal/relay", "internal/streaming", "internal/edgecache", "internal/catalog"},
		"the session SDK speaks the wire contract (internal/proto), not server-tier code"},
	{"internal/check", []string{"internal/streaming", "internal/relay", "internal/client", "internal/edgecache"},
		"the body oracle derives a correct body from the container format alone, not from a copy of the code it judges"},
}

func runLayering(pass *Pass) {
	for _, rule := range layerRules {
		if !pathHasSuffix(pass.Pkg.ImportPath, rule.pkg) {
			continue
		}
		for _, f := range pass.Pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				for _, bad := range rule.forbidden {
					if pathHasSuffix(path, bad) {
						pass.Reportf(imp.Pos(), "%s imports %s: %s", rule.pkg, path, rule.why)
					}
				}
			}
		}
	}
}
