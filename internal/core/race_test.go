//go:build race

package core

// raceBuild: the race detector instruments every frame, and a parked
// rank's stack is then a property of the instrumentation.
const raceBuild = true
