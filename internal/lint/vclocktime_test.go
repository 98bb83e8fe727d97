package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestVclocktimeFlags(t *testing.T) {
	linttest.Run(t, lint.Vclocktime, testdata("vclocktime"), "repro/internal/streaming")
}

func TestVclocktimeFlagsMembership(t *testing.T) {
	linttest.Run(t, lint.Vclocktime, testdata("vclocktime", "membership"), "repro/internal/relay/membership")
}

func TestVclocktimeIgnoresOutsidePackages(t *testing.T) {
	linttest.Run(t, lint.Vclocktime, testdata("vclocktime", "outside"), "repro/internal/codec")
}
