//go:build race

package main

// raceBuild marks a race-detector build, which runs the workloads about
// ten times slower; see short and skipUnderRace.
const raceBuild = true
