package serve

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// distSetPoisonReleased is the dist package's test-only release hook:
// while it is on, every receive buffer the fleet hands back is
// overwritten, so a frame read after its release yields wrong bytes
// instead of the next frame's. It returns how many releases have been
// poisoned so far. It is unexported there; tests of this package reach it
// by name, and a dist without it fails to link rather than leaving the
// hook silently off.
//
//go:linkname distSetPoisonReleased tflux/internal/dist.setPoisonReleased
func distSetPoisonReleased(on bool) int64

// poisonRecycled turns the hook on for the rest of t, and fails t if no
// released buffer was poisoned meanwhile.
func poisonRecycled(t *testing.T) {
	t.Helper()
	before := distSetPoisonReleased(true)
	t.Cleanup(func() {
		if distSetPoisonReleased(false) == before {
			t.Error("no released receive buffer was poisoned: the hook does not reach the fleet")
		}
	})
}
