package workload

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync/atomic"

	"pgssi"
)

// RUBiS (§8.3): an auction site modelled on eBay, run with the standard
// "bidding" mix of 85% read-only and 15% read/write interactions. The
// workload's signature conflict, called out in the paper, is between
// queries that list the current bids on all items in a category and
// requests to bid on those items.
//
// Keys:
//
//	users    u6                           rating, nbComments
//	items    i7                           category, seller, price, nbBids
//	bids     i7|b6                        bidder, amount
//	comments u6|m6                        from, text
//
// A secondary index on items by category serves category browsing.
type RUBiS struct {
	// Users is the number of registered users.
	Users int
	// Items is the number of active auctions.
	Items int
	// Categories partitions the items.
	Categories int

	nextUser atomic.Int64
	nextItem atomic.Int64
	nextBid  atomic.Int64
	nextCmt  atomic.Int64
}

func uKey(u int64) string      { return fmt.Sprintf("%06d", u) }
func itKey(i int64) string     { return fmt.Sprintf("%07d", i) }
func cmtKey(u, m int64) string { return fmt.Sprintf("%06d|%06d", u, m) }

// Tables returns the schema table names.
func (r *RUBiS) Tables() []string { return []string{"users", "items", "bids", "comments"} }

// Setup creates the schema and loads users and items.
func (r *RUBiS) Setup(db *pgssi.DB) error {
	for _, t := range r.Tables() {
		if err := db.CreateTable(t); err != nil {
			return err
		}
	}
	err := db.CreateIndex("items", "by_cat", func(_ string, value []byte) (string, bool) {
		c := field(string(value), "cat")
		if c == "" {
			return "", false
		}
		return c, true
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(5, 5))
	if err := db.RunTx(pgssi.TxOptions{Isolation: pgssi.RepeatableRead}, func(tx *pgssi.Tx) error {
		for u := int64(1); u <= int64(r.Users); u++ {
			rec := fmt.Sprintf("rating=%d;nbc=0", rng.IntN(100))
			if err := tx.Insert("users", uKey(u), []byte(rec)); err != nil {
				return err
			}
		}
		for i := int64(1); i <= int64(r.Items); i++ {
			cat := rng.IntN(r.Categories)
			seller := 1 + rng.Int64N(int64(r.Users))
			rec := fmt.Sprintf("cat=%03d;seller=%06d;price=%d;nb=0", cat, seller, 100+rng.IntN(900))
			if err := tx.Insert("items", itKey(i), []byte(rec)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.nextUser.Store(int64(r.Users))
	r.nextItem.Store(int64(r.Items))
	return nil
}

func (r *RUBiS) randItem(rng *rand.Rand) string {
	return itKey(1 + rng.Int64N(max(r.nextItem.Load(), 1)))
}

func (r *RUBiS) randUser(rng *rand.Rand) string {
	return uKey(1 + rng.Int64N(max(r.nextUser.Load(), 1)))
}

func catRange(cat int) (string, string) {
	return fmt.Sprintf("%03d", cat), fmt.Sprintf("%03d\xff", cat)
}

// ViewItem reads an item and its bid history (read-only).
func (r *RUBiS) ViewItem(tx *pgssi.Tx, rng *rand.Rand) error {
	item := r.randItem(rng)
	if _, err := tx.Get("items", item); err != nil && err != pgssi.ErrNotFound {
		return err
	}
	return tx.Scan("bids", item+"|", item+"|\xff", func(string, []byte) bool { return true })
}

// BrowseCategory lists the items (with current prices) in one category —
// the query the paper singles out as conflicting with PlaceBid.
func (r *RUBiS) BrowseCategory(tx *pgssi.Tx, rng *rand.Rand) error {
	lo, hi := catRange(rng.IntN(r.Categories))
	return tx.ScanIndex("items", "by_cat", lo, hi, func(string, []byte) bool { return true })
}

// ViewUserInfo reads a user and their comments (read-only).
func (r *RUBiS) ViewUserInfo(tx *pgssi.Tx, rng *rand.Rand) error {
	u := r.randUser(rng)
	if _, err := tx.Get("users", u); err != nil && err != pgssi.ErrNotFound {
		return err
	}
	return tx.Scan("comments", u+"|", u+"|\xff", func(string, []byte) bool { return true })
}

// PlaceBid reads an item, inserts a bid, and updates the item's current
// price and bid count.
func (r *RUBiS) PlaceBid(tx *pgssi.Tx, rng *rand.Rand) error {
	item := r.randItem(rng)
	recRaw, err := tx.Get("items", item)
	if err != nil {
		if err == pgssi.ErrNotFound {
			return nil
		}
		return err
	}
	rec := string(recRaw)
	price := fieldInt(rec, "price")
	nb := fieldInt(rec, "nb")
	bid := price + 1 + rng.IntN(50)
	b := r.nextBid.Add(1)
	bidder := r.randUser(rng)
	if err := tx.Insert("bids", item+"|"+fmt.Sprintf("%06d", b), []byte("bidder="+bidder+";amt="+strconv.Itoa(bid))); err != nil {
		return err
	}
	rec = setField(rec, "price", strconv.Itoa(bid))
	rec = setField(rec, "nb", strconv.Itoa(nb+1))
	return tx.Update("items", item, []byte(rec))
}

// RegisterItem creates a new auction.
func (r *RUBiS) RegisterItem(tx *pgssi.Tx, rng *rand.Rand) error {
	i := r.nextItem.Add(1)
	cat := rng.IntN(r.Categories)
	rec := fmt.Sprintf("cat=%03d;seller=%s;price=%d;nb=0", cat, r.randUser(rng), 100+rng.IntN(900))
	return tx.Insert("items", itKey(i), []byte(rec))
}

// RegisterUser creates a new user.
func (r *RUBiS) RegisterUser(tx *pgssi.Tx, _ *rand.Rand) error {
	u := r.nextUser.Add(1)
	return tx.Insert("users", uKey(u), []byte("rating=0;nbc=0"))
}

// LeaveComment inserts a comment and bumps the target user's comment
// count and rating.
func (r *RUBiS) LeaveComment(tx *pgssi.Tx, rng *rand.Rand) error {
	u := r.randUser(rng)
	recRaw, err := tx.Get("users", u)
	if err != nil {
		if err == pgssi.ErrNotFound {
			return nil
		}
		return err
	}
	rec := string(recRaw)
	m := r.nextCmt.Add(1)
	if err := tx.Insert("comments", cmtKey(parseID(u), m), []byte("from="+r.randUser(rng)+";text=c")); err != nil {
		return err
	}
	rec = setField(rec, "nbc", strconv.Itoa(fieldInt(rec, "nbc")+1))
	rec = setField(rec, "rating", strconv.Itoa(fieldInt(rec, "rating")+1))
	return tx.Update("users", u, []byte(rec))
}

func parseID(key string) int64 {
	n, _ := strconv.ParseInt(key, 10, 64)
	return n
}

// Mix returns the standard bidding mix: 85% read-only, 15% read/write.
func (r *RUBiS) Mix() *Mix {
	return NewMix().
		// Read-only 85%.
		Add(0.30, Job{Name: "view_item", ReadOnly: true, Fn: r.ViewItem}).
		Add(0.30, Job{Name: "browse_category", ReadOnly: true, Fn: r.BrowseCategory}).
		Add(0.25, Job{Name: "view_user", ReadOnly: true, Fn: r.ViewUserInfo}).
		// Read/write 15%.
		Add(0.08, Job{Name: "place_bid", Fn: r.PlaceBid}).
		Add(0.03, Job{Name: "register_item", Fn: r.RegisterItem}).
		Add(0.02, Job{Name: "register_user", Fn: r.RegisterUser}).
		Add(0.02, Job{Name: "leave_comment", Fn: r.LeaveComment})
}
