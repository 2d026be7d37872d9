package core

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain fails the package's test run if the pipeline leaks goroutines —
// the recognizer worker pool must always be joined, even on cancellation
// and panic paths.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
