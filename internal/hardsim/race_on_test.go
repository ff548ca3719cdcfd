//go:build race

package hardsim_test

// raceBuild selects the allocation ceilings that hold under the race
// detector, which instruments what a run allocates.
const raceBuild = true
