// Command prdmasim runs a user-described scenario on the simulated
// distributed-PM testbed and prints a JSON report: throughput, latency
// percentiles and model counters.
//
// Usage:
//
//	prdmasim -f scenario.json
//	prdmasim -example            # print a template scenario and exit
//	echo '{"rpc":"WFlush-RPC","ops":5000}' | prdmasim
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"prdma/internal/bench"
)

const exampleSpec = `{
  "name": "durable writes under heavy processing",
  "rpc": "WFlush-RPC",
  "ops": 20000,
  "objects": 10000,
  "objectSize": 4096,
  "readFraction": 0.5,
  "clients": 1,
  "processingUS": 100,
  "workers": 3,
  "seed": 1,
  "busyNetwork": false,
  "busyReceiver": false,
  "busySender": false,
  "ddio": false,
  "nativeFlush": false,
  "crashes": null
}`

func main() {
	file := flag.String("f", "", "scenario JSON file (default: stdin)")
	example := flag.Bool("example", false, "print a template scenario and exit")
	flag.Parse()

	if *example {
		fmt.Println(exampleSpec)
		return
	}

	in := os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	spec, err := bench.Load(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep, err := spec.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
