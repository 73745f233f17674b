// Command gradsec-repro regenerates the paper's evaluation artefacts.
//
// Usage:
//
//	gradsec-repro            # run everything (tables 1/5/6, figures 5-8, ablations)
//	gradsec-repro -exp fig5a # run one artefact
//	gradsec-repro -list      # list artefact IDs
//
// It exits non-zero when an artefact is unknown or comes back without rows.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/gradsec/gradsec/internal/repro"
)

func main() {
	exp := flag.String("exp", "", "single experiment ID ("+strings.Join(repro.IDs(), ",")+")")
	list := flag.Bool("list", false, "list experiment IDs")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(repro.IDs(), " "))
		return
	}
	ids := repro.IDs()
	if *exp != "" {
		ids = []string{*exp}
	}
	for _, id := range ids {
		t := repro.ByID(id)
		if t == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(1)
		}
		if len(t.Rows) == 0 {
			fmt.Fprintf(os.Stderr, "experiment %q produced an empty table\n", id)
			os.Exit(1)
		}
		t.Print(os.Stdout)
	}
}
