package tpcw

import "strconv"

// PartitionKey extracts the shard-routing key of a bookstore action for
// hash-partitioned deployments (internal/shard): the identity of the row
// group the action touches first. Actions whose identity is assigned only
// at execution time (creating a cart or a customer) have no intrinsic key
// and return ok=false — the caller routes those by its own session key,
// which also keeps a session's later cart and customer actions on the
// shard that created them (per-shard ID counters make raw IDs ambiguous
// across shards).
func PartitionKey(action any) (key string, ok bool) {
	switch a := action.(type) {
	case CartUpdateAction:
		if a.Cart != 0 {
			return CartKey(a.Cart), true
		}
		return "", false
	case BuyConfirmAction:
		if a.Cart != 0 {
			return CartKey(a.Cart), true
		}
		return CustomerKey(a.Customer), true
	case RefreshSessionAction:
		return CustomerKey(a.Customer), true
	case AdminUpdateAction:
		return ItemKey(a.Item), true
	case GiftOrderAction:
		// The merged single-group form lives where the buyer's cart does.
		return CartKey(a.Cart), true
	case GiftDebitAction:
		return CartKey(a.Cart), true
	case GiftDeliverAction:
		return CustomerKey(a.Recipient), true
	case InventorySweepAction:
		// A sweep branch carries one group's item set; there is no single
		// row key — the 2PC driver dispatches it by participant group.
		return "", false
	case CreateCartAction, CreateCustomerAction:
		return "", false
	default:
		return "", false
	}
}

// TxnKeys lists a branch action's conflict keys: while the branch is
// prepared, the web tier holds conflicting writes on these keys until the
// outcome record releases them (core.TxnBlocks).
func TxnKeys(action any) []string {
	switch a := action.(type) {
	case GiftDebitAction:
		return []string{
			CartKey(a.Cart),
			CustomerKey(a.Buyer),
		}
	case GiftDeliverAction:
		return []string{CustomerKey(a.Recipient)}
	case InventorySweepAction:
		keys := make([]string, 0, len(a.Items))
		for _, id := range a.Items {
			keys = append(keys, ItemKey(id))
		}
		return keys
	default:
		if key, ok := PartitionKey(action); ok {
			return []string{key}
		}
		return nil
	}
}

// The key prefixes of rows that are routed by ID alone: the web tier hands
// one, with the ID, to shard.RoutingTable.RouteInt, which hashes the same
// bytes the key functions below spell.
const (
	ItemPrefix     = "item/"
	CustomerPrefix = "customer/"
	SessionPrefix  = "session/"
)

// ItemKey, CustomerKey and CartKey spell a row's key: what the routing
// table hashes, a prepared branch blocks and a migration's ownership
// predicate is asked.
func ItemKey(id ItemID) string         { return ItemPrefix + strconv.FormatInt(int64(id), 10) }
func CustomerKey(id CustomerID) string { return CustomerPrefix + strconv.FormatInt(int64(id), 10) }
func CartKey(id CartID) string         { return "cart/" + strconv.FormatInt(int64(id), 10) }

// SessionKey is the partition key of a client session: the routing level
// the web tier and the live command use, guaranteeing that every action
// of one session — cart creation included — lands on one shard.
func SessionKey(client int64) string {
	return SessionPrefix + strconv.FormatInt(client, 10)
}
