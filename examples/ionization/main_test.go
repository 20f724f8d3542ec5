package main

import (
	"testing"

	"picmcio/clitest"
)

// runRows are the argument sets TestRun pins: stdout against a fixture
// captured from the example's binary before it ran as a function, or a
// refusal's exit code and first stderr line.
var runRows = []clitest.Row{
	{Args: "", Golden: "ionization.txt"},
	// It has no settings: an argument is a usage error.
	{Args: "x", Code: 2, Stderr: "usage: ionization (no arguments)"},
}

func TestRun(t *testing.T) { clitest.Rows(t, run, runRows) }
