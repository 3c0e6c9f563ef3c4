// Leakhunt reproduces the paper's single-leak case study (Fig. 4) on the
// full TPC-W stack: a 100KB/N=100 memory leak is injected into the home
// servlet, emulated browsers shop for a virtual hour, and the manager's
// map names the guilty component.
//
//	go run ./examples/leakhunt [-minutes 60] [-ebs 50]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/tpcw"
)

func main() {
	minutes := flag.Int("minutes", 60, "virtual minutes to run")
	ebs := flag.Int("ebs", 50, "emulated browser population")
	flag.Parse()

	stack, err := repro.NewStack(repro.StackConfig{Seed: 42, Monitored: true})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	leak, err := stack.InjectLeak(tpcw.CompHome, 100<<10, 100, 7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running %d virtual minutes at %d EBs with a 100KB/N=100 leak in %s...\n",
		*minutes, *ebs, tpcw.CompHome)
	start := time.Now()
	stack.Run(time.Duration(*minutes)*time.Minute, *ebs)
	fmt.Printf("completed %d interactions in %v wall time; leak fired %d times (%d bytes)\n\n",
		stack.Driver.Completed(), time.Since(start).Truncate(time.Millisecond),
		leak.Injections(), leak.LeakedBytes())

	ranking := stack.Framework.Manager().Map(repro.ResourceMemory)
	fmt.Println(ranking)
	top, _ := ranking.Top()
	fmt.Printf("verdict: %s is the aging root cause (paper expects %s)\n", top.Name, tpcw.CompHome)
	fmt.Printf("time to heap exhaustion at current trend: %v\n",
		stack.Framework.Manager().TimeToExhaustion().Truncate(time.Second))
}
