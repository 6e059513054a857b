//go:build race

package cqa_test

// raceAllocs is what a race-detector build adds to a warm Query 3's
// allocation count (TestWarmJoinAllocs): one, in every run measured.
const raceAllocs = 1
