// Package eb implements TPC-W's Emulated Browsers: session-based clients
// that walk the fourteen web interactions following a per-mix transition
// matrix, with negative-exponential think time (mean 7 s, 70 s cap) between
// requests, exactly the load generator semantics of the paper's
// experimental setup. There is one session model (the session table, one
// slot per browser) and one driver (ShardedDriver): a phase schedule
// changes the concurrent EB population and the mix over virtual time —
// the 50 → 100 → 200 EB schedule of Fig. 3 on one engine shard — and the
// same driver spreads a million sessions over one shard per core.
package eb

import (
	"fmt"

	"repro/internal/tpcw"
)

// Mix selects a TPC-W workload mix.
type Mix int

// The three TPC-W mixes. The paper's experiments all use Shopping.
const (
	Browsing Mix = iota
	Shopping
	Ordering
)

func (m Mix) String() string {
	switch m {
	case Browsing:
		return "browsing"
	case Shopping:
		return "shopping"
	case Ordering:
		return "ordering"
	default:
		return "unknown"
	}
}

// Transition is one weighted edge of the navigation graph.
type Transition struct {
	To     string
	Weight float64
}

// Matrix maps each interaction to its outgoing transitions. Weights are
// relative within a row.
type Matrix map[string][]Transition

// TransitionMatrix returns the navigation matrix of a mix. The graphs
// share TPC-W's page-flow structure; the mixes differ in how strongly they
// pull sessions toward the ordering path (Browsing ≈ 5%, Shopping ≈ 20%,
// Ordering ≈ 50% of activity on cart/buy pages). Admin and order-inquiry
// pages are rare in every mix — which is why the admin servlets are the
// naturally low-usage components the paper's Fig. 5 calls "D".
func TransitionMatrix(mix Mix) Matrix {
	// Cart affinity scales the edges leading toward purchases.
	var cart, buy float64
	switch mix {
	case Browsing:
		cart, buy = 0.4, 0.5
	case Shopping:
		cart, buy = 1.0, 1.0
	case Ordering:
		cart, buy = 3.0, 2.5
	default:
		panic(fmt.Sprintf("eb: unknown mix %d", mix))
	}
	return Matrix{
		tpcw.CompHome: {
			{tpcw.CompSearchRequest, 25},
			{tpcw.CompNewProducts, 18},
			{tpcw.CompBestSellers, 12},
			{tpcw.CompProductDetail, 30},
			{tpcw.CompShoppingCart, 6 * cart},
			{tpcw.CompOrderInquiry, 2},
			{tpcw.CompAdminRequest, 0.4},
		},
		tpcw.CompNewProducts: {
			{tpcw.CompProductDetail, 55},
			{tpcw.CompHome, 15},
			{tpcw.CompSearchRequest, 20},
			{tpcw.CompShoppingCart, 8 * cart},
		},
		tpcw.CompBestSellers: {
			{tpcw.CompProductDetail, 55},
			{tpcw.CompHome, 15},
			{tpcw.CompSearchRequest, 20},
			{tpcw.CompShoppingCart, 8 * cart},
		},
		tpcw.CompProductDetail: {
			{tpcw.CompProductDetail, 22}, // follow a related item
			{tpcw.CompShoppingCart, 16 * cart},
			{tpcw.CompSearchRequest, 20},
			{tpcw.CompHome, 22},
			{tpcw.CompNewProducts, 10},
			{tpcw.CompAdminRequest, 0.4},
		},
		tpcw.CompSearchRequest: {
			{tpcw.CompSearchResults, 85},
			{tpcw.CompHome, 15},
		},
		tpcw.CompSearchResults: {
			{tpcw.CompProductDetail, 45},
			{tpcw.CompSearchRequest, 22},
			{tpcw.CompHome, 15},
			{tpcw.CompShoppingCart, 10 * cart},
		},
		tpcw.CompShoppingCart: {
			{tpcw.CompCustomerReg, 25 * buy},
			{tpcw.CompProductDetail, 25},
			{tpcw.CompHome, 20},
			{tpcw.CompSearchRequest, 15},
		},
		tpcw.CompCustomerReg: {
			{tpcw.CompBuyRequest, 85},
			{tpcw.CompHome, 15},
		},
		tpcw.CompBuyRequest: {
			{tpcw.CompBuyConfirm, 70 * buy},
			{tpcw.CompHome, 20},
		},
		tpcw.CompBuyConfirm: {
			{tpcw.CompHome, 60},
			{tpcw.CompSearchRequest, 40},
		},
		tpcw.CompOrderInquiry: {
			{tpcw.CompOrderDisplay, 70},
			{tpcw.CompHome, 30},
		},
		tpcw.CompOrderDisplay: {
			{tpcw.CompHome, 60},
			{tpcw.CompSearchRequest, 40},
		},
		tpcw.CompAdminRequest: {
			{tpcw.CompAdminConfirm, 75},
			{tpcw.CompHome, 25},
		},
		tpcw.CompAdminConfirm: {
			{tpcw.CompHome, 100},
		},
	}
}

// Validate checks that every transition target is a deployable interaction
// and every row has positive total weight.
func (m Matrix) Validate() error {
	known := make(map[string]bool, len(tpcw.Interactions))
	for _, n := range tpcw.Interactions {
		known[n] = true
	}
	for from, row := range m {
		if !known[from] {
			return fmt.Errorf("eb: matrix row for unknown interaction %q", from)
		}
		var total float64
		for _, tr := range row {
			if !known[tr.To] {
				return fmt.Errorf("eb: transition %s -> unknown %q", from, tr.To)
			}
			if tr.Weight < 0 {
				return fmt.Errorf("eb: negative weight on %s -> %s", from, tr.To)
			}
			total += tr.Weight
		}
		if total <= 0 {
			return fmt.Errorf("eb: row %q has no positive weight", from)
		}
	}
	return nil
}
