//go:build !race

package rts

const raceBuild = false
