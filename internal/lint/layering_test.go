package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestLayeringFlagsRelay(t *testing.T) {
	linttest.Run(t, lint.Layering, testdata("layering"), "repro/internal/relay")
}

func TestLayeringFlagsPlayer(t *testing.T) {
	linttest.Run(t, lint.Layering, testdata("layering", "player"), "repro/internal/player")
}

func TestLayeringFlagsClient(t *testing.T) {
	linttest.Run(t, lint.Layering, testdata("layering", "client"), "repro/internal/client")
}

func TestLayeringFlagsMembership(t *testing.T) {
	linttest.Run(t, lint.Layering, testdata("layering", "membership"), "repro/internal/relay/membership")
}

func TestLayeringFlagsCheck(t *testing.T) {
	linttest.Run(t, lint.Layering, testdata("layering", "check"), "repro/internal/check")
}

func TestLayeringIgnoresUnconstrainedPackages(t *testing.T) {
	for _, path := range []string{"repro/benchmark", "repro/cmd/lodplay", "repro/internal/relayx", "repro"} {
		linttest.Run(t, lint.Layering, testdata("layering", "outside"), path)
	}
}
