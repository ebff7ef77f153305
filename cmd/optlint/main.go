// Command optlint runs the engine's invariant analyzer suite
// (internal/analysis/optlint): determinism of rule output, integer
// exactness of parallel merges, BytesRead accounting, crash-safe
// writes, and one parallel scheduler.
//
// Two modes, selected automatically:
//
//	optlint ./...                     standalone: load packages, report
//	go vet -vettool=$(which optlint)  vet driver: speaks the unitchecker
//	                                  protocol (-V=full, -flags, *.cfg)
//
// Exit status: 0 clean, 1 findings, 2 driver error. Intended
// exceptions are waived in source with
//
//	//optlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line or the line above; undocumented or unused
// waivers are themselves findings.
package main

import (
	"optrule/internal/analysis"
	"optrule/internal/analysis/optlint"
)

func main() {
	analysis.Main(optlint.Suite())
}
