// Package rules defines the rewrite schedule: the architecture-
// independent interface between the static analyser and the dynamic
// binary modifier. A schedule is a header plus a sequence of rewrite
// rules; each rule names an application address where it triggers, a
// rule ID selecting the DBM handler, and a rule-specific payload.
//
// The rule set mirrors figure 3 of the paper: six profiling rules and
// twelve parallelisation rules. Adding functionality to Janus means
// adding a rule ID here and a handler in internal/dbm.
package rules

import (
	"errors"
	"fmt"
)

// ID selects the DBM handler for a rule.
type ID uint16

// Profiling rules (figure 3, blue).
const (
	PROF_LOOP_START    ID = iota + 1 // start profiling a loop
	PROF_LOOP_FINISH                 // finish profiling a loop
	PROF_LOOP_ITER                   // start another loop iteration
	PROF_EXCALL_START                // start profiling an external call
	PROF_EXCALL_FINISH               // finish profiling an external call
	PROF_MEM_ACCESS                  // check a memory access for dependences

	// Parallelisation rules (figure 3, orange).
	THREAD_SCHEDULE   // schedule threads to jump to a code address
	THREAD_YIELD      // send threads back to the thread pool
	LOOP_INIT         // initialise loop context for each thread
	LOOP_FINISH       // combine loop contexts from all threads
	LOOP_UPDATE_BOUND // update a loop bound for a thread
	MEM_MAIN_STACK    // redirect a stack access to the main stack
	MEM_PRIVATISE     // redirect a memory access to a private address
	MEM_BOUNDS_CHECK  // perform a bounds check on array bounds
	MEM_SPILL_REG     // spill a set of registers to private storage
	MEM_RECOVER_REG   // recover a set of registers from private storage
	TX_START          // start a software transaction
	TX_FINISH         // validate and commit a software transaction

	idMax
)

var idNames = map[ID]string{
	PROF_LOOP_START:    "PROF_LOOP_START",
	PROF_LOOP_FINISH:   "PROF_LOOP_FINISH",
	PROF_LOOP_ITER:     "PROF_LOOP_ITER",
	PROF_EXCALL_START:  "PROF_EXCALL_START",
	PROF_EXCALL_FINISH: "PROF_EXCALL_FINISH",
	PROF_MEM_ACCESS:    "PROF_MEM_ACCESS",
	THREAD_SCHEDULE:    "THREAD_SCHEDULE",
	THREAD_YIELD:       "THREAD_YIELD",
	LOOP_INIT:          "LOOP_INIT",
	LOOP_FINISH:        "LOOP_FINISH",
	LOOP_UPDATE_BOUND:  "LOOP_UPDATE_BOUND",
	MEM_MAIN_STACK:     "MEM_MAIN_STACK",
	MEM_PRIVATISE:      "MEM_PRIVATISE",
	MEM_BOUNDS_CHECK:   "MEM_BOUNDS_CHECK",
	MEM_SPILL_REG:      "MEM_SPILL_REG",
	MEM_RECOVER_REG:    "MEM_RECOVER_REG",
	TX_START:           "TX_START",
	TX_FINISH:          "TX_FINISH",
}

func (id ID) String() string {
	if s, ok := idNames[id]; ok {
		return s
	}
	return fmt.Sprintf("RULE(%d)", uint16(id))
}

// Valid reports whether id is defined.
func (id ID) Valid() bool { return id >= PROF_LOOP_START && id < idMax }

// IsProfiling reports whether the rule belongs to the profiling set.
func (id ID) IsProfiling() bool { return id >= PROF_LOOP_START && id <= PROF_MEM_ACCESS }

// Rule is one rewrite rule. Addr is the application address the rule is
// attached to; LoopID names the loop the rule belongs to (-1 if none);
// Data is the rule-specific payload.
type Rule struct {
	Addr   uint64
	ID     ID
	LoopID int32
	Data   Payload
}

func (r Rule) String() string {
	return fmt.Sprintf("%#x %s loop=%d %v", r.Addr, r.ID, r.LoopID, r.Data)
}

// Schedule is a complete rewrite schedule for one executable.
type Schedule struct {
	// ExeName identifies the executable the schedule was generated for.
	ExeName string
	// ExeSize is the image size (code + data) at generation time.
	// CheckFor holds both against the executable a schedule is about to
	// be applied to; zero (a hand-built schedule) matches any size.
	ExeSize uint64
	// Rules in static-analyser order; rules sharing an address are
	// applied in this order (paper §II-A2).
	Rules []Rule
}

// ErrWrongBinary is what CheckFor's error wraps: the schedule was
// generated for another executable.
var ErrWrongBinary = errors.New("rules: schedule was generated for another binary")

// CheckFor reports whether the schedule may be applied to the
// executable of that name and image size. Rules are attached to code
// addresses, so a schedule applied to any other binary rewrites
// arbitrary instructions; schedules arrive from files and stores, and
// the DBM refuses such a pairing rather than run it. An empty recorded
// name or a zero recorded size is not checked.
func (s *Schedule) CheckFor(exeName string, exeSize uint64) error {
	if s.ExeName != "" && s.ExeName != exeName {
		return fmt.Errorf("%w: schedule names %q, executable is %q", ErrWrongBinary, s.ExeName, exeName)
	}
	if s.ExeSize != 0 && s.ExeSize != exeSize {
		return fmt.Errorf("%w: schedule records a %d-byte image of %q, executable has %d", ErrWrongBinary, s.ExeSize, s.ExeName, exeSize)
	}
	return nil
}

// Append adds a rule.
func (s *Schedule) Append(r Rule) { s.Rules = append(s.Rules, r) }

// Index is the DBM's hash table from application address to the rules
// triggered there, preserving schedule order.
type Index struct {
	byAddr map[uint64][]Rule
}

// BuildIndex constructs the address hash table for a schedule.
func BuildIndex(s *Schedule) *Index {
	ix := &Index{byAddr: make(map[uint64][]Rule, len(s.Rules))}
	for _, r := range s.Rules {
		ix.byAddr[r.Addr] = append(ix.byAddr[r.Addr], r)
	}
	return ix
}

// At returns the rules attached to addr in schedule order.
func (ix *Index) At(addr uint64) []Rule { return ix.byAddr[addr] }

// Has reports whether any rule triggers at addr.
func (ix *Index) Has(addr uint64) bool { return len(ix.byAddr[addr]) > 0 }

// AnyInRange reports whether any rule triggers within [lo, hi).
func (ix *Index) AnyInRange(lo, hi uint64) bool {
	for a := range ix.byAddr {
		if a >= lo && a < hi {
			return true
		}
	}
	return false
}
