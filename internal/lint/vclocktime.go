package lint

import (
	"go/ast"
	"strings"
)

// Vclocktime forbids taking time directly from the time package inside
// the virtual-clock-participating packages. Those packages pace, sleep,
// and timestamp on a vclock.Clock so that MemNet benchmarks and
// simulation tests stay deterministic; one stray time.Now silently
// reintroduces wall-clock nondeterminism. Genuine wall-clock sites
// (e.g. a report's generation timestamp) carry the
// `//lodlint:allow wall-clock` directive — and vclock.Real is exactly
// the wall clock for everyone who wants it through the interface.
var Vclocktime = &Analyzer{
	Name:  "vclocktime",
	Alias: "wall-clock",
	Doc:   "virtual-clock packages take time from vclock.Clock, not the time package",
	Run:   runVclocktime,
}

// vclockPackages are the packages whose time flows through
// vclock.Clock. internal/vclock itself is the one place allowed to
// touch the time package (Real wraps it), and is deliberately absent.
var vclockPackages = []string{
	"internal/streaming",
	"internal/player",
	"internal/relay",
	"internal/relay/membership",
	"internal/netsim",
	"internal/catalog",
	"internal/edgecache",
	"internal/client",
	"internal/session",
}

// vclockForbidden are the time-package members that read or schedule on
// the wall clock. Since and Until are included: both call time.Now
// internally.
var vclockForbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"Since":     true,
	"Until":     true,
}

func runVclocktime(pass *Pass) {
	enforced := false
	for _, p := range vclockPackages {
		if pathHasSuffix(pass.Pkg.ImportPath, p) {
			enforced = true
			break
		}
	}
	if !enforced {
		return
	}
	short := pass.Pkg.ImportPath
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	for _, f := range pass.Pkg.Files {
		timeNames := importNames(f, "time")
		eachPkgSelector(f, timeNames, func(sel *ast.SelectorExpr) {
			if !vclockForbidden[sel.Sel.Name] {
				return
			}
			pass.Reportf(sel.Pos(),
				"time.%s in virtual-clock package %s: take time from a vclock.Clock (use vclock.Real for the wall clock, or annotate a genuine wall-clock site with %s wall-clock)",
				sel.Sel.Name, short, AllowDirective)
		})
	}
}
