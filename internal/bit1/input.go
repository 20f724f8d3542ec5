// Package bit1 is the application shell of the simulated BIT1 code: the
// input deck (the five I/O-critical parameters of §II and nothing else),
// the time-step loop, and the two output paths the paper compares — the
// original serial stdio file-per-process writer and the openPMD adaptor
// (adaptor.go), the paper's contribution.
package bit1

import (
	"fmt"
	"strconv"
	"strings"
)

// InputDeck holds BIT1's five I/O-critical input parameters, named as in
// the paper. They are all a run reads from a deck: the data volume comes
// from Config.Sizing, not from a cell or particle count.
type InputDeck struct {
	DatFile  string // diagnostic snapshot base name
	DMPStep  int    // checkpoint period in steps
	MVFlag   int    // >0 activates time-dependent diagnostics
	MVStep   int    // steps between time-dependent diagnostics
	LastStep int    // final step (saves state and terminates)
}

// DefaultDeck returns a deck shaped like the paper's production case but
// scaled in epochs: diagnostics every MVStep, checkpoints every DMPStep.
func DefaultDeck() InputDeck {
	return InputDeck{
		DatFile:  "bit1",
		DMPStep:  10000,
		MVFlag:   1,
		MVStep:   1000,
		LastStep: 200000,
	}
}

// ParseDeck parses a key = value deck (the 1–3 kB input file every rank
// reads). Unknown keys are rejected so typos fail loudly, and so is a
// size (cells, particles, species) the run would ignore.
func ParseDeck(src string) (InputDeck, error) {
	d := DefaultDeck()
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "!") {
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return d, fmt.Errorf("bit1: input line %d: expected key = value", ln+1)
		}
		key := strings.ToLower(strings.TrimSpace(line[:eq]))
		val := strings.TrimSpace(line[eq+1:])
		setInt := func(dst *int) error {
			v, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("bit1: input line %d: bad integer %q", ln+1, val)
			}
			*dst = v
			return nil
		}
		var err error
		switch key {
		case "datfile":
			d.DatFile = val
		case "dmpstep":
			err = setInt(&d.DMPStep)
		case "mvflag":
			err = setInt(&d.MVFlag)
		case "mvstep":
			err = setInt(&d.MVStep)
		case "last_step", "laststep":
			err = setInt(&d.LastStep)
		default:
			return d, fmt.Errorf("bit1: input line %d: unknown key %q", ln+1, key)
		}
		if err != nil {
			return d, err
		}
	}
	return d, d.Validate()
}

// Validate checks deck consistency.
func (d InputDeck) Validate() error {
	if d.LastStep < 1 {
		return fmt.Errorf("bit1: last_step must be >= 1")
	}
	if d.MVFlag > 0 && d.MVStep < 1 {
		return fmt.Errorf("bit1: mvstep must be >= 1 when mvflag > 0")
	}
	if d.DMPStep < 1 {
		return fmt.Errorf("bit1: dmpstep must be >= 1")
	}
	if d.DatFile == "" {
		return fmt.Errorf("bit1: datfile must be set")
	}
	return nil
}
