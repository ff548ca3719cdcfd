//go:build race

package rts

// raceBuild: the race detector perturbs the schedule, so a run may meet a
// deeper queue or TUB than its warm-up did and grow it once: allocation
// ceilings are race-specific.
const raceBuild = true
