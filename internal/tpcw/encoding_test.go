package tpcw

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"
)

// TestActionsAreGobEncodable verifies every action round-trips through
// encoding/gob: a real networked deployment (or file-backed WAL) must be
// able to serialize them, and the modeled ActionSize should not wildly
// understate the encoded size.
func TestActionsAreGobEncodable(t *testing.T) {
	now := time.Date(2009, 6, 1, 12, 0, 0, 0, time.UTC)
	actions := []any{
		CartUpdateAction{
			Cart: 3, AddItem: 7, AddQty: 2,
			SetLines:   []CartLine{{Item: 7, Qty: 1}},
			RandomItem: 9, Now: now,
		},
		CreateCustomerAction{
			FName: "F", LName: "L", Street1: "1 Main", City: "C",
			State: "ST", Zip: "12345", Country: 3, Phone: "555",
			Email: "a@b", BirthDate: now, Data: "d", Discount: 10, Now: now,
		},
		RefreshSessionAction{Customer: 4, Now: now},
		BuyConfirmAction{
			Cart: 3, Customer: 4, CCType: "VISA", CCNum: "4111",
			CCName: "N", CCExpire: now, ShipType: "AIR",
			ShipDate: now, Comment: "c", Now: now,
		},
		AdminUpdateAction{Item: 7, Cost: 9.5, Image: "i", Thumbnail: "t", Now: now},
		GiftAction{Parts: GiftDebit | GiftDeliver, Cart: 3, Buyer: 4, Recipient: 5, ShipType: "AIR", ShipDate: now, Tag: "g1", Now: now},
		GiftAction{Parts: GiftDebit, Cart: 3, Buyer: 4, Total: 21.5, Tag: "g1", Now: now},
		GiftAction{
			Parts: GiftDeliver, Recipient: 5, Lines: []OrderLine{{Item: 7, Qty: 2, Comments: "g1"}},
			SubTotal: 18, Tax: 1.5, Total: 21.5, ShipType: "AIR", ShipDate: now, Tag: "g1", Now: now,
		},
		InventorySweepAction{Items: []ItemID{7, 9}, Cost: 4.25, Tag: "s1", Now: now},
	}
	for _, action := range actions {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&action); err != nil {
			// Interface encoding needs registration; encode concretely.
			buf.Reset()
			if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(action)); err != nil {
				t.Fatalf("%T: encode: %v", action, err)
			}
		}
		out := reflect.New(reflect.TypeOf(action))
		if err := gob.NewDecoder(&buf).DecodeValue(out); err != nil {
			t.Fatalf("%T: decode: %v", action, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), action) {
			t.Fatalf("%T: round trip mismatch:\n got %+v\nwant %+v",
				action, out.Elem().Interface(), action)
		}
	}
}

// TestResultsAreGobEncodable does the same for result types (they travel
// back to clients in a networked deployment).
func TestResultsAreGobEncodable(t *testing.T) {
	results := []any{
		CartResult{Cart: Cart{ID: 1, Lines: []CartLine{{Item: 2, Qty: 3}}}},
		CreateCustomerResult{Customer: 5},
		BuyConfirmResult{Order: 9, Total: 12.5, Err: "e"},
		GiftResult{Order: 9, Total: 21.5, Err: "e"},
		InventorySweepResult{Updated: 2},
	}
	for _, r := range results {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).EncodeValue(reflect.ValueOf(r)); err != nil {
			t.Fatalf("%T: encode: %v", r, err)
		}
		out := reflect.New(reflect.TypeOf(r))
		if err := gob.NewDecoder(&buf).DecodeValue(out); err != nil {
			t.Fatalf("%T: decode: %v", r, err)
		}
		if !reflect.DeepEqual(out.Elem().Interface(), r) {
			t.Fatalf("%T: round trip mismatch:\n got %+v\nwant %+v", r, out.Elem().Interface(), r)
		}
	}
}
