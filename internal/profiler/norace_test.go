//go:build !race

package profiler

const raceEnabled = false
