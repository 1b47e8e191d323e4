package tpcw

import "strconv"

// TxnKeys lists a branch action's conflict keys: while the branch is
// prepared, the web tier holds conflicting writes on these keys until the
// outcome record releases them (core.Replica.TxnBlocksInt).
func TxnKeys(action any) []string {
	switch a := action.(type) {
	case GiftAction:
		var keys []string
		if a.Parts&GiftDebit != 0 {
			keys = append(keys, CartKey(a.Cart), CustomerKey(a.Buyer))
		}
		if a.Parts&GiftDeliver != 0 {
			keys = append(keys, CustomerKey(a.Recipient))
		}
		return keys
	case InventorySweepAction:
		keys := make([]string, 0, len(a.Items))
		for _, id := range a.Items {
			keys = append(keys, ItemKey(id))
		}
		return keys
	default:
		return nil
	}
}

// The key prefixes of rows that are keyed by ID alone: the web tier hands
// one, with the ID, to shard.RoutingTable.RouteInt, which hashes the same
// bytes the key functions below spell, and to core.Replica.TxnBlocksInt,
// which compares them with a prepared branch's keys.
const (
	ItemPrefix     = "item/"
	CustomerPrefix = "customer/"
	CartPrefix     = "cart/"
	SessionPrefix  = "session/"
)

// ItemKey, CustomerKey and CartKey spell a row's key: what the routing
// table hashes, a prepared branch blocks and a migration's ownership
// predicate is asked.
func ItemKey(id ItemID) string         { return ItemPrefix + strconv.FormatInt(int64(id), 10) }
func CustomerKey(id CustomerID) string { return CustomerPrefix + strconv.FormatInt(int64(id), 10) }
func CartKey(id CartID) string         { return CartPrefix + strconv.FormatInt(int64(id), 10) }

// SessionKey is the partition key of a client session: the routing level
// the web tier and the live command use, guaranteeing that every action
// of one session — cart creation included — lands on one shard.
func SessionKey(client int64) string {
	return SessionPrefix + strconv.FormatInt(client, 10)
}
