// Command ccring prints the consistent-hash placement of graph IDs
// onto cluster members - the same ring the client.Cluster routes with,
// so deployment tooling can decide which replica should load which
// snapshot before any daemon starts.
//
//	$ ccring -members http://a:8080,http://b:8080,http://c:8080 roads web social
//	roads	http://b:8080
//	web	http://a:8080
//	social	http://b:8080
//
// With -succ k each line lists the owner followed by the next k-1 ring
// successors (the failover order), tab-separated; load the snapshot on
// all of them for k-way redundancy:
//
//	$ ccring -members ... -succ 2 roads
//	roads	http://b:8080	http://c:8080
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/congestedclique/ccsp/api"
	"github.com/congestedclique/ccsp/internal/cluster"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ccring:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		members = flag.String("members", "", "comma-separated replica base URLs (required)")
		succ    = flag.Int("succ", 1, "members to print per graph: the owner plus succ-1 ring successors")
	)
	flag.Parse()
	if *members == "" {
		return fmt.Errorf("-members is required")
	}
	if *succ < 1 {
		return fmt.Errorf("-succ must be >= 1")
	}
	var ms []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			ms = append(ms, m)
		}
	}
	if len(ms) == 0 {
		return fmt.Errorf("-members is empty")
	}
	graphs := flag.Args()
	if len(graphs) == 0 {
		return fmt.Errorf("no graph IDs given (pass them as arguments)")
	}
	ring := cluster.NewRing(ms)
	for _, g := range graphs {
		if err := api.ValidateGraphID(g); err != nil {
			return err
		}
		succs := ring.Successors(g)
		n := *succ
		if n > len(succs) {
			n = len(succs)
		}
		fmt.Printf("%s\t%s\n", g, strings.Join(succs[:n], "\t"))
	}
	return nil
}
