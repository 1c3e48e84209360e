// Package pkg is the guard fixture: Live is called from a non-test
// file, Dead only from a test.
package pkg

// Live is called by the fixture's main.
func Live() int { return 1 }

// Dead is called only by pkg_test.go.
func Dead() int { return 2 }
