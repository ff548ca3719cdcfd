//go:build !race

package cellsim

const raceBuild = false
