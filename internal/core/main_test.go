package core

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain fails the package's test run if the pipeline leaks goroutines.
// Discovery runs on the caller's goroutine and starts none; the check keeps
// it that way, on cancellation and panic paths too.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
