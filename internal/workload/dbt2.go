package workload

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync/atomic"

	"pgssi"
)

// DBT-2++ (§8.2): a TPC-C-style transaction processing workload with the
// five standard transaction types plus the "credit check" transaction
// from Cahill's TPC-C++ variant, which reads a customer's balance and
// recent order history and updates their credit status — the addition
// that makes snapshot isolation anomalies possible (plain TPC-C is
// anomaly-free under SI [Fekete et al. 2005]).
//
// Following the paper's own modifications, warehouse year-to-date totals
// are omitted (a known artificial hotspot) and the read-only item table
// is treated as cacheable.
//
// Key encodings are fixed-width decimal so B+-tree range scans line up
// with TPC-C's access patterns:
//
//	warehouse  w4
//	district   w4|d2
//	customer   w4|d2|c4
//	item       i5
//	stock      w4|i5
//	orders     w4|d2|o7    (value carries the customer id)
//	new_order  w4|d2|o7
//	order_line w4|d2|o7|l2
//	history    w4|d2|c4|h10
type DBT2 struct {
	// Warehouses is the scale factor (25 in-memory / 150 disk-bound in
	// the paper; scale down proportionally for unit-scale runs).
	Warehouses int
	// Districts per warehouse (TPC-C: 10).
	Districts int
	// Customers per district (TPC-C: 3000; scaled down by default).
	Customers int
	// Items in the catalog (TPC-C: 100000; scaled down by default).
	Items int
	// InitialOrders preloaded per district.
	InitialOrders int

	hist atomic.Int64
}

// DefaultDBT2 returns a laptop-scale configuration with the given number
// of warehouses.
func DefaultDBT2(warehouses int) *DBT2 {
	return &DBT2{Warehouses: warehouses, Districts: 10, Customers: 100, Items: 1000, InitialOrders: 10}
}

func wKey(w int) string           { return fmt.Sprintf("%04d", w) }
func dKey(w, d int) string        { return fmt.Sprintf("%04d|%02d", w, d) }
func cKey(w, d, c int) string     { return fmt.Sprintf("%04d|%02d|%04d", w, d, c) }
func iKey(i int) string           { return fmt.Sprintf("%05d", i) }
func sKey(w, i int) string        { return fmt.Sprintf("%04d|%05d", w, i) }
func oKey(w, d, o int) string     { return fmt.Sprintf("%04d|%02d|%07d", w, d, o) }
func olKey(w, d, o, l int) string { return fmt.Sprintf("%04d|%02d|%07d|%02d", w, d, o, l) }
func hKey(w, d, c int, h int64) string {
	return fmt.Sprintf("%04d|%02d|%04d|%010d", w, d, c, h)
}

// field extracts a "k=v" field from a semicolon-separated record.
func field(rec, key string) string {
	for _, part := range strings.Split(rec, ";") {
		if k, v, ok := strings.Cut(part, "="); ok && k == key {
			return v
		}
	}
	return ""
}

func fieldInt(rec, key string) int {
	n, _ := strconv.Atoi(field(rec, key))
	return n
}

func setField(rec, key, val string) string {
	parts := strings.Split(rec, ";")
	for i, part := range parts {
		if k, _, ok := strings.Cut(part, "="); ok && k == key {
			parts[i] = key + "=" + val
			return strings.Join(parts, ";")
		}
	}
	return rec + ";" + key + "=" + val
}

// Tables returns the schema table names (used by replicas).
func (b *DBT2) Tables() []string {
	return []string{"warehouse", "district", "customer", "item", "stock", "orders", "new_order", "order_line", "history"}
}

// Setup creates the schema and loads initial data.
func (b *DBT2) Setup(db *pgssi.DB) error {
	for _, t := range b.Tables() {
		if err := db.CreateTable(t); err != nil {
			return err
		}
	}
	// Secondary index: orders by customer, for order-status and
	// credit-check lookups of a customer's order history.
	err := db.CreateIndex("orders", "by_cust", func(key string, value []byte) (string, bool) {
		// key = w4|d2|o7, value carries c=cccc.
		c := field(string(value), "c")
		if c == "" || len(key) < 7 {
			return "", false
		}
		return key[:7] + "|" + c, true
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(99, 1))

	load := pgssi.TxOptions{Isolation: pgssi.RepeatableRead}

	// Items.
	if err := db.RunTx(load, func(tx *pgssi.Tx) error {
		for i := 1; i <= b.Items; i++ {
			rec := fmt.Sprintf("price=%d;name=item%05d", 100+rng.IntN(9900), i)
			if err := tx.Insert("item", iKey(i), []byte(rec)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Per warehouse: warehouse, stock, districts, customers, orders.
	for w := 1; w <= b.Warehouses; w++ {
		if err := db.RunTx(load, func(tx *pgssi.Tx) error { return b.loadWarehouse(tx, rng, w) }); err != nil {
			return err
		}
	}
	return nil
}

// loadWarehouse inserts warehouse w's rows: the warehouse, its stock,
// and its districts with their customers and initial orders.
func (b *DBT2) loadWarehouse(tx *pgssi.Tx, rng *rand.Rand, w int) error {
	rec := fmt.Sprintf("tax=%d;name=wh%04d", rng.IntN(20), w)
	if err := tx.Insert("warehouse", wKey(w), []byte(rec)); err != nil {
		return err
	}
	for i := 1; i <= b.Items; i++ {
		srec := fmt.Sprintf("qty=%d", 10+rng.IntN(90))
		if err := tx.Insert("stock", sKey(w, i), []byte(srec)); err != nil {
			return err
		}
	}
	for d := 1; d <= b.Districts; d++ {
		drec := fmt.Sprintf("next=%d;tax=%d", b.InitialOrders+1, rng.IntN(20))
		if err := tx.Insert("district", dKey(w, d), []byte(drec)); err != nil {
			return err
		}
		for c := 1; c <= b.Customers; c++ {
			crec := fmt.Sprintf("bal=%d;credit=GC;name=cust%04d", -1000+rng.IntN(2000), c)
			if err := tx.Insert("customer", cKey(w, d, c), []byte(crec)); err != nil {
				return err
			}
		}
		for o := 1; o <= b.InitialOrders; o++ {
			c := 1 + rng.IntN(b.Customers)
			cnt := 5 + rng.IntN(11)
			orec := fmt.Sprintf("c=%04d;cnt=%d;carrier=0", c, cnt)
			if err := tx.Insert("orders", oKey(w, d, o), []byte(orec)); err != nil {
				return err
			}
			for l := 1; l <= cnt; l++ {
				item := 1 + rng.IntN(b.Items)
				olrec := fmt.Sprintf("i=%05d;qty=%d;amt=%d", item, 1+rng.IntN(10), 100+rng.IntN(9900))
				if err := tx.Insert("order_line", olKey(w, d, o, l), []byte(olrec)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// NewOrder is the TPC-C new-order transaction.
func (b *DBT2) NewOrder(tx *pgssi.Tx, rng *rand.Rand) error {
	w := 1 + rng.IntN(b.Warehouses)
	d := 1 + rng.IntN(b.Districts)
	c := 1 + rng.IntN(b.Customers)

	if _, err := tx.Get("warehouse", wKey(w)); err != nil {
		return err
	}
	drecRaw, err := tx.Get("district", dKey(w, d))
	if err != nil {
		return err
	}
	drec := string(drecRaw)
	o := fieldInt(drec, "next")
	if err := tx.Update("district", dKey(w, d), []byte(setField(drec, "next", strconv.Itoa(o+1)))); err != nil {
		return err
	}
	if _, err := tx.Get("customer", cKey(w, d, c)); err != nil {
		return err
	}
	cnt := 5 + rng.IntN(11)
	for l := 1; l <= cnt; l++ {
		item := 1 + rng.IntN(b.Items)
		irec, err := tx.Get("item", iKey(item))
		if err != nil {
			return err
		}
		price := fieldInt(string(irec), "price")
		srecRaw, err := tx.Get("stock", sKey(w, item))
		if err != nil {
			return err
		}
		srec := string(srecRaw)
		qty := fieldInt(srec, "qty")
		order := 1 + rng.IntN(10)
		newQty := qty - order
		if newQty < 10 {
			newQty += 91
		}
		if err := tx.Update("stock", sKey(w, item), []byte(setField(srec, "qty", strconv.Itoa(newQty)))); err != nil {
			return err
		}
		olrec := fmt.Sprintf("i=%05d;qty=%d;amt=%d", item, order, price*order)
		if err := tx.Insert("order_line", olKey(w, d, o, l), []byte(olrec)); err != nil {
			return err
		}
	}
	orec := fmt.Sprintf("c=%04d;cnt=%d;carrier=0", c, cnt)
	if err := tx.Insert("orders", oKey(w, d, o), []byte(orec)); err != nil {
		return err
	}
	return tx.Insert("new_order", oKey(w, d, o), nil)
}

// Payment is the TPC-C payment transaction (without the warehouse and
// district year-to-date hotspots, per §8.2).
func (b *DBT2) Payment(tx *pgssi.Tx, rng *rand.Rand) error {
	w := 1 + rng.IntN(b.Warehouses)
	d := 1 + rng.IntN(b.Districts)
	c := 1 + rng.IntN(b.Customers)
	amt := 100 + rng.IntN(4900)

	if _, err := tx.Get("district", dKey(w, d)); err != nil {
		return err
	}
	crecRaw, err := tx.Get("customer", cKey(w, d, c))
	if err != nil {
		return err
	}
	crec := string(crecRaw)
	bal := fieldInt(crec, "bal") - amt
	if err := tx.Update("customer", cKey(w, d, c), []byte(setField(crec, "bal", strconv.Itoa(bal)))); err != nil {
		return err
	}
	h := b.hist.Add(1)
	return tx.Insert("history", hKey(w, d, c, h), []byte(strconv.Itoa(amt)))
}

// OrderStatus is the read-only TPC-C order-status transaction: a
// customer's most recent order and its lines.
func (b *DBT2) OrderStatus(tx *pgssi.Tx, rng *rand.Rand) error {
	w := 1 + rng.IntN(b.Warehouses)
	d := 1 + rng.IntN(b.Districts)
	c := 1 + rng.IntN(b.Customers)
	if _, err := tx.Get("customer", cKey(w, d, c)); err != nil {
		return err
	}
	prefix := fmt.Sprintf("%04d|%02d|%04d", w, d, c)
	lastOrder := ""
	err := tx.ScanIndex("orders", "by_cust", prefix, prefix+"\xff", func(key string, _ []byte) bool {
		lastOrder = key
		return true
	})
	if err != nil {
		return err
	}
	if lastOrder == "" {
		return nil
	}
	return tx.Scan("order_line", lastOrder+"|", lastOrder+"|\xff", func(string, []byte) bool { return true })
}

// Delivery is the TPC-C delivery transaction: per district, deliver the
// oldest undelivered order.
func (b *DBT2) Delivery(tx *pgssi.Tx, rng *rand.Rand) error {
	w := 1 + rng.IntN(b.Warehouses)
	for d := 1; d <= b.Districts; d++ {
		prefix := fmt.Sprintf("%04d|%02d|", w, d)
		oldest := ""
		err := tx.Scan("new_order", prefix, prefix+"\xff", func(key string, _ []byte) bool {
			oldest = key
			return false // first key is the oldest order id
		})
		if err != nil {
			return err
		}
		if oldest == "" {
			continue
		}
		if err := tx.Delete("new_order", oldest); err != nil {
			return err
		}
		orecRaw, err := tx.Get("orders", oldest)
		if err != nil {
			return err
		}
		orec := string(orecRaw)
		if err := tx.Update("orders", oldest, []byte(setField(orec, "carrier", strconv.Itoa(1+rng.IntN(10))))); err != nil {
			return err
		}
		total := 0
		err = tx.Scan("order_line", oldest+"|", oldest+"|\xff", func(_ string, v []byte) bool {
			total += fieldInt(string(v), "amt")
			return true
		})
		if err != nil {
			return err
		}
		c := fieldInt(orec, "c")
		crecRaw, err := tx.Get("customer", cKey(w, d, c))
		if err != nil {
			return err
		}
		crec := string(crecRaw)
		bal := fieldInt(crec, "bal") + total
		if err := tx.Update("customer", cKey(w, d, c), []byte(setField(crec, "bal", strconv.Itoa(bal)))); err != nil {
			return err
		}
	}
	return nil
}

// StockLevel is the read-only TPC-C stock-level transaction: items from
// the district's last 20 orders with stock below a threshold.
func (b *DBT2) StockLevel(tx *pgssi.Tx, rng *rand.Rand) error {
	w := 1 + rng.IntN(b.Warehouses)
	d := 1 + rng.IntN(b.Districts)
	threshold := 10 + rng.IntN(11)
	drec, err := tx.Get("district", dKey(w, d))
	if err != nil {
		return err
	}
	next := fieldInt(string(drec), "next")
	lo := max(next-20, 1)
	items := map[int]bool{}
	loKey := fmt.Sprintf("%04d|%02d|%07d", w, d, lo)
	hiKey := fmt.Sprintf("%04d|%02d|%07d", w, d, next)
	err = tx.Scan("order_line", loKey, hiKey, func(_ string, v []byte) bool {
		items[fieldInt(string(v), "i")] = true
		return true
	})
	if err != nil {
		return err
	}
	low := 0
	for i := range items {
		srec, err := tx.Get("stock", sKey(w, i))
		if err != nil {
			if err == pgssi.ErrNotFound {
				continue
			}
			return err
		}
		if fieldInt(string(srec), "qty") < threshold {
			low++
		}
	}
	return nil
}

// CreditCheck is Cahill's TPC-C++ addition: read a customer's balance
// and recent order totals, then update their credit status. Its
// read-orders / write-customer footprint is what creates dependency
// cycles with NewOrder and Delivery under snapshot isolation.
func (b *DBT2) CreditCheck(tx *pgssi.Tx, rng *rand.Rand) error {
	w := 1 + rng.IntN(b.Warehouses)
	d := 1 + rng.IntN(b.Districts)
	c := 1 + rng.IntN(b.Customers)
	crecRaw, err := tx.Get("customer", cKey(w, d, c))
	if err != nil {
		return err
	}
	crec := string(crecRaw)
	bal := fieldInt(crec, "bal")

	prefix := fmt.Sprintf("%04d|%02d|%04d", w, d, c)
	var orders []string
	err = tx.ScanIndex("orders", "by_cust", prefix, prefix+"\xff", func(key string, _ []byte) bool {
		orders = append(orders, key)
		return true
	})
	if err != nil {
		return err
	}
	if len(orders) > 5 {
		orders = orders[len(orders)-5:]
	}
	total := 0
	for _, o := range orders {
		err := tx.Scan("order_line", o+"|", o+"|\xff", func(_ string, v []byte) bool {
			total += fieldInt(string(v), "amt")
			return true
		})
		if err != nil {
			return err
		}
	}
	credit := "GC"
	if total-bal > 50000 {
		credit = "BC"
	}
	return tx.Update("customer", cKey(w, d, c), []byte(setField(crec, "credit", credit)))
}

// Mix builds the DBT-2++ mix with the given read-only fraction (the
// x-axis of Figure 5). The standard TPC-C proportions are kept among the
// read/write transactions (NewOrder 45 : Payment 43 : Delivery 4 plus
// CreditCheck 4), and OrderStatus/StockLevel split the read-only share
// equally. roFraction = 0.08 approximates the standard mix.
func (b *DBT2) Mix(roFraction float64) *Mix {
	rw := 1 - roFraction
	return NewMix().
		Add(rw*45/96, Job{Name: "new_order", Fn: b.NewOrder}).
		Add(rw*43/96, Job{Name: "payment", Fn: b.Payment}).
		Add(rw*4/96, Job{Name: "delivery", Fn: b.Delivery}).
		Add(rw*4/96, Job{Name: "credit_check", Fn: b.CreditCheck}).
		Add(roFraction/2, Job{Name: "order_status", ReadOnly: true, Fn: b.OrderStatus}).
		Add(roFraction/2, Job{Name: "stock_level", ReadOnly: true, Fn: b.StockLevel})
}
