package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/lint/analysis"
)

// writeGitHub emits one workflow command per finding (the -github
// output format); on a pull request these render as inline annotations.
// Newlines and the %,\r,\n control characters must be escaped per the
// workflow-command grammar.
func writeGitHub(w io.Writer, diags []analysis.Diagnostic) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	for _, d := range diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column,
			esc.Replace(fmt.Sprintf("[%s] %s", d.Analyzer, d.Message)))
	}
}
