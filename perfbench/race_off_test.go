//go:build !race

package main

// raceBuild marks a race-detector build; see race_on_test.go.
const raceBuild = false
