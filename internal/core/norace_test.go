//go:build !race

package core

const raceBuild = false
