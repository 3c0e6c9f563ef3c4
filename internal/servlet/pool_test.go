package servlet

import (
	"testing"
)

// TestPooledRequestResetsOnRelease pins the recycle contract: a released
// request must come back blank — parameters, session, flow mark and
// dispatch scratch cleared — while literal requests pass through
// ReleaseRequest untouched.
func TestPooledRequestResetsOnRelease(t *testing.T) {
	req := AcquireRequest()
	req.Interaction = "x"
	req.SessionID = "s"
	req.SetParam("A", "1")
	req.SetInt64Param("B", 2)
	req.SetFlowMark(42)
	ReleaseRequest(req)

	got := AcquireRequest()
	// The pool may or may not hand the same object back; either way a
	// fresh acquisition must be blank.
	if got.Interaction != "" || got.SessionID != "" || got.Param("A") != "" {
		t.Fatalf("acquired request carries stale state: %+v", got)
	}
	if _, ok := got.Int64Param("B"); ok {
		t.Fatal("acquired request carries stale int param")
	}
	if _, set := got.FlowMark(); set {
		t.Fatal("acquired request carries stale flow mark")
	}
	ReleaseRequest(got)

	literal := &Request{Interaction: "keep"}
	ReleaseRequest(literal) // must be a no-op
	if literal.Interaction != "keep" {
		t.Fatal("ReleaseRequest reset a literal request")
	}
}

// TestRequestParamStores exercises the three parameter surfaces together:
// the legacy map, the inline string store and the typed int store, with
// the map taking precedence and ints parsing both ways.
func TestRequestParamStores(t *testing.T) {
	req := &Request{Params: map[string]string{"K": "map"}}
	req.SetParam("K", "inline")
	if got := req.Param("K"); got != "map" {
		t.Fatalf("Params map should take precedence, got %q", got)
	}
	req.SetParam("S", "7")
	if v, ok := req.Int64Param("S"); !ok || v != 7 {
		t.Fatalf("Int64Param over string store = %d, %v", v, ok)
	}
	req.SetInt64Param("N", 9)
	if got := req.Param("N"); got != "9" {
		t.Fatalf("Param over int store = %q", got)
	}
	req.SetInt64Param("N", 10) // overwrite, not append
	if v, _ := req.Int64Param("N"); v != 10 {
		t.Fatalf("SetInt64Param overwrite = %d", v)
	}
	if _, ok := req.Int64Param("S2"); ok {
		t.Fatal("absent int param reported present")
	}
}

// TestResponseItemIDsBridge pins the two-way compatibility between the
// typed item-id store and the legacy Data key: ids added through
// AddItemID surface under Get("item_ids"), and ids stored via Set are
// returned by ItemIDs.
func TestResponseItemIDsBridge(t *testing.T) {
	typed := &Response{Status: StatusOK}
	typed.AddItemID(3)
	typed.AddItemID(5)
	if ids, ok := typed.Get("item_ids").([]int64); !ok || len(ids) != 2 || ids[0] != 3 {
		t.Fatalf("Get bridge = %v", typed.Get("item_ids"))
	}
	if ids := typed.ItemIDs(); len(ids) != 2 || ids[1] != 5 {
		t.Fatalf("ItemIDs = %v", typed.ItemIDs())
	}

	legacy := &Response{Status: StatusOK}
	legacy.Set("item_ids", []int64{8})
	if ids := legacy.ItemIDs(); len(ids) != 1 || ids[0] != 8 {
		t.Fatalf("ItemIDs over Data = %v", legacy.ItemIDs())
	}

	pooled := AcquireResponse()
	pooled.AddItemID(1)
	pooled.Set("k", "v")
	pooled.Status = StatusServerError
	ReleaseResponse(pooled)
	fresh := AcquireResponse()
	if fresh.Status != StatusOK || len(fresh.ItemIDs()) != 0 || fresh.Get("k") != nil {
		t.Fatalf("acquired response carries stale state: %+v", fresh)
	}
	ReleaseResponse(fresh)
}
