// Multileak reproduces the paper's multi-component experiments (Figs. 5-7):
// four components leak with different sizes and usage frequencies, and the
// composed map ranks them the way the paper's analysis predicts.
//
//	go run ./examples/multileak [-minutes 60] [-ebs 50] [-mixed]
//
// Without -mixed all four leak 100KB (Fig. 5/6); with -mixed the sizes are
// A=100KB, B=10KB, C=1MB, D=1MB (Fig. 7).
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
	mixed := flag.Bool("mixed", false, "use Fig. 7's mixed injection sizes")
	flag.Parse()

	stack, err := repro.NewStack(repro.StackConfig{Seed: 42, Monitored: true})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()

	const kb, mb = 1 << 10, 1 << 20
	sizes := map[string]int{
		tpcw.CompHome:          100 * kb, // A: heavily used
		tpcw.CompProductDetail: 100 * kb, // B: heavily used
		tpcw.CompBestSellers:   100 * kb, // C: moderately used
		tpcw.CompAdminConfirm:  100 * kb, // D: rarely used
	}
	if *mixed {
		sizes[tpcw.CompProductDetail] = 10 * kb
		sizes[tpcw.CompBestSellers] = 1 * mb
		sizes[tpcw.CompAdminConfirm] = 1 * mb
	}
	seed := uint64(11)
	for comp, size := range sizes {
		if _, err := stack.InjectLeak(comp, size, 100, seed); err != nil {
			log.Fatal(err)
		}
		seed += 31
		fmt.Printf("armed %7d-byte leak (N=100) in %s\n", size, comp)
	}

	fmt.Printf("\nrunning %d virtual minutes at %d EBs (shopping mix)...\n", *minutes, *ebs)
	stack.Run(time.Duration(*minutes)*time.Minute, *ebs)
	fmt.Printf("completed %d interactions\n\n", stack.Driver.Completed())

	ranking := stack.Framework.Manager().Map(repro.ResourceMemory)
	fmt.Println(ranking)
	if *mixed {
		fmt.Println("paper expectation (Fig. 7): best_sellers first (1MB), home second,")
		fmt.Println("product_detail third, admin_confirm flat despite its 1MB size.")
	} else {
		fmt.Println("paper expectation (Figs. 5/6): home and product_detail lead at similar")
		fmt.Println("rates, best_sellers trails, admin_confirm stays flat (never used enough).")
	}
}
