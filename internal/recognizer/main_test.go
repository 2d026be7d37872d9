package recognizer

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain fails the package's test run if any test leaks a goroutine,
// including on the scans' cancellation, fault, and panic paths. The scans
// start none; the check keeps it that way.
func TestMain(m *testing.M) { testutil.VerifyTestMain(m) }
