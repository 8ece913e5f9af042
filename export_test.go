package janus

import (
	"janus/internal/analyzer"
	"janus/internal/obj"
)

// What the package's external tests reach of its internals.

// AnalysisOf is the session's memoised static analysis of bin.
func (s *Session) AnalysisOf(bin *obj.Binary) (*analyzer.Program, error) {
	return s.orDefault().runAnalyzeMemo(bin)
}

// Digest names the plan's schedule as it keys the runs under it.
func (p *Plan) Digest() string { return p.digest }
