//go:build race

package main

// raceEnabled lets the smoke test drop its time and allocation limits
// when the race detector multiplies every operation's cost and adds
// allocations of its own.
const raceEnabled = true
