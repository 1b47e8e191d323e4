package tpcw

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"
)

// FuzzRoundTrip drives randomized bookstore actions through the gob
// encoding a networked deployment (or file-backed WAL) would use and
// asserts a lossless round trip. The corpus is seeded from the concrete
// cases of encoding_test.go, flattened into fuzzable primitives.
func FuzzRoundTrip(f *testing.F) {
	// Seeds mirror TestActionsAreGobEncodable's actions: (kind, ids,
	// qty, strings, discount/cost, timestamp).
	f.Add(uint8(0), int64(0), int64(0), int32(0), "", "", "", 0.0, int64(1243857600))
	f.Add(uint8(1), int64(3), int64(7), int32(2), "", "", "", 0.0, int64(1243857600))
	f.Add(uint8(2), int64(0), int64(3), int32(0), "F", "1 Main", "a@b", 10.0, int64(1243857600))
	f.Add(uint8(3), int64(4), int64(0), int32(0), "", "", "", 0.0, int64(1243857600))
	f.Add(uint8(4), int64(3), int64(4), int32(0), "VISA", "4111", "c", 0.0, int64(1243857600))
	f.Add(uint8(5), int64(7), int64(0), int32(0), "i", "t", "", 9.5, int64(1243857600))

	f.Fuzz(func(t *testing.T, kind uint8, idA, idB int64, qty int32,
		s1, s2, s3 string, x float64, unixSec int64) {
		if x != x {
			x = 0 // NaN never compares equal; not a round-trip property
		}
		now := time.Unix(unixSec%1e10, unixSec%1e9).UTC()
		var action any
		switch kind % 6 {
		case 0:
			action = CartUpdateAction{Now: now}
		case 1:
			var lines []CartLine
			for i := int32(0); i < qty%4; i++ {
				lines = append(lines, CartLine{Item: ItemID(idB + int64(i)), Qty: i + 1})
			}
			action = CartUpdateAction{
				Cart: CartID(idA), AddItem: ItemID(idB), AddQty: qty,
				SetLines: lines, RandomItem: ItemID(idB + 1), Now: now,
			}
		case 2:
			action = CreateCustomerAction{
				FName: s1, LName: s2, Street1: s2, City: s3, State: s1,
				Zip: s3, Country: CountryID(idA), Phone: s1, Email: s3,
				BirthDate: now, Data: s2, Discount: x, Now: now,
			}
		case 3:
			action = RefreshSessionAction{Customer: CustomerID(idA), Now: now}
		case 4:
			action = BuyConfirmAction{
				Cart: CartID(idA), Customer: CustomerID(idB), CCType: s1,
				CCNum: s2, CCName: s3, CCExpire: now, ShipType: s1,
				ShipDate: now, Comment: s3, Now: now,
			}
		case 5:
			action = AdminUpdateAction{
				Item: ItemID(idA), Cost: x, Image: s1, Thumbnail: s2, Now: now,
			}
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(action)); err != nil {
			t.Fatalf("%T: encode: %v", action, err)
		}
		out := reflect.New(reflect.TypeOf(action))
		if err := gob.NewDecoder(&buf).DecodeValue(out); err != nil {
			t.Fatalf("%T: decode: %v", action, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), action) {
			t.Fatalf("%T: round trip mismatch:\n got %+v\nwant %+v",
				action, out.Elem().Interface(), action)
		}
	})
}
