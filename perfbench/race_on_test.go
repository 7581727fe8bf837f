//go:build race

package main

// raceEnabled reports a -race build: its sync.Pool drops a random share
// of Puts, so allocation counts no longer repeat exactly.
const raceEnabled = true
