//! A TPC-C subset: NewOrder, Payment and OrderStatus.
//!
//! The paper uses TPC-C only for the page-latch profile of Figure 2 (its
//! baselines hit none of the targeted bottlenecks on TPC-C), so this module
//! implements the three transactions that dominate the standard mix and the
//! tables they touch.  Key encodings pack the composite TPC-C keys into 64
//! bits, proportional to the warehouse id so per-table partitionings align;
//! the item table is partitioned by item id and reached through its own
//! actions (it is the classic non-warehouse-aligned access).

use std::sync::atomic::{AtomicU64, Ordering};

use plp_core::{Action, ActionOutput, Database, EngineError, TableId, TableSpec, TransactionPlan};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::fields;
use crate::Workload;

const WAREHOUSE: TableId = TableId(0);
const DISTRICT: TableId = TableId(1);
const CUSTOMER: TableId = TableId(2);
const ITEM: TableId = TableId(3);
const STOCK: TableId = TableId(4);
const ORDERS: TableId = TableId(5);
const ORDER_LINE: TableId = TableId(6);

const DISTRICTS_PER_WAREHOUSE: u64 = 10;
const CUSTOMERS_PER_DISTRICT: u64 = 3_000;
const ITEMS: u64 = 100_000;
/// Order slots reserved per district.
const ORDERS_PER_DISTRICT: u64 = 1 << 21;
const MAX_ORDER_LINES: u64 = 15;

fn district_key(w: u64, d: u64) -> u64 {
    w * DISTRICTS_PER_WAREHOUSE + d
}

fn customer_key(w: u64, d: u64, c: u64) -> u64 {
    district_key(w, d) * CUSTOMERS_PER_DISTRICT + c
}

fn stock_key(w: u64, i: u64) -> u64 {
    w * ITEMS + i
}

fn order_key(w: u64, d: u64, o: u64) -> u64 {
    district_key(w, d) * ORDERS_PER_DISTRICT + o
}

fn order_line_key(w: u64, d: u64, o: u64, ol: u64) -> u64 {
    order_key(w, d, o) * MAX_ORDER_LINES + ol
}

/// Record field offsets shared by several tables.
pub mod off {
    /// year-to-date / balance style accumulator.
    pub(crate) const YTD: usize = 0;
    /// district next order id.
    pub(crate) const NEXT_O_ID: usize = 8;
    /// stock quantity.
    pub(crate) const QUANTITY: usize = 8;
    /// item price.
    pub(crate) const PRICE: usize = 8;
}

const RECORD_SIZE: usize = 96;

/// The TPC-C workload generator (NewOrder 45%, Payment 43%, OrderStatus 12%).
pub struct Tpcc {
    warehouses: u64,
    /// Scale-down factor for loaded customers/items/stock so small experiments
    /// stay fast while keeping the same access shape.
    load_items: u64,
    load_customers: u64,
    next_order: AtomicU64,
}

impl Tpcc {
    pub fn new(warehouses: u64) -> Self {
        Self {
            warehouses: warehouses.max(1),
            load_items: ITEMS.min(10_000),
            load_customers: CUSTOMERS_PER_DISTRICT.min(300),
            next_order: AtomicU64::new(1),
        }
    }

    /// Scale the loaded item/customer counts (the key *encodings* keep the
    /// full TPC-C key space so partition alignment is unaffected).
    pub fn with_scale(mut self, items: u64, customers_per_district: u64) -> Self {
        self.load_items = items.clamp(100, ITEMS);
        self.load_customers = customers_per_district.clamp(10, CUSTOMERS_PER_DISTRICT);
        self
    }

    fn record(seed: u64) -> Vec<u8> {
        let mut r = vec![0u8; RECORD_SIZE];
        fields::set_u64(&mut r, off::YTD, 10_000);
        fields::set_u64(&mut r, 8, seed);
        r
    }

    /// NewOrder: read warehouse/customer, bump the district's next order id,
    /// read the items, update stock, then insert the order and its lines.
    fn new_order(
        &self,
        w: u64,
        d: u64,
        c: u64,
        items: Vec<(u64, u64)>, // (item id, quantity)
    ) -> TransactionPlan {
        let d_key = district_key(w, d);
        let c_key = customer_key(w, d, c % self.load_customers);
        let o_id = self.next_order.fetch_add(1, Ordering::Relaxed) % ORDERS_PER_DISTRICT;
        let item_keys: Vec<u64> = items.iter().map(|(i, _)| *i % self.load_items).collect();
        let quantities: Vec<u64> = items.iter().map(|(_, q)| *q).collect();

        // Stage 1: warehouse + district + customer reads/updates and the item
        // price lookups (each item is its own action on the item partition).
        let mut actions = vec![Action::new(DISTRICT, d_key, move |ctx| {
            let _w = ctx.read(WAREHOUSE, w)?;
            let _c = ctx.read(CUSTOMER, c_key)?;
            let mut next = 0;
            ctx.update(DISTRICT, d_key, &mut |r| {
                next = fields::get_u64(r, off::NEXT_O_ID);
                fields::set_u64(r, off::NEXT_O_ID, next + 1);
            })?;
            Ok(ActionOutput::with_values(vec![next]))
        })];
        for &i in &item_keys {
            actions.push(Action::new(ITEM, i, move |ctx| {
                let row = ctx
                    .read(ITEM, i)?
                    .ok_or_else(|| EngineError::Abort("missing item".into()))?;
                Ok(ActionOutput::with_values(vec![fields::get_u64(
                    &row,
                    off::PRICE,
                )]))
            }));
        }

        let load_items = self.load_items;
        TransactionPlan::parallel(actions).followed_by(move |outputs| {
            let prices: Vec<u64> = outputs
                .iter()
                .skip(1)
                .flat_map(|o| o.values.clone())
                .collect();
            // Stage 2: stock updates + order/order-line inserts.
            let mut actions = Vec::new();
            for (idx, &i) in item_keys.iter().enumerate() {
                let s_key = stock_key(w, i % load_items);
                let qty = quantities.get(idx).copied().unwrap_or(1);
                actions.push(Action::new(STOCK, s_key, move |ctx| {
                    ctx.update(STOCK, s_key, &mut |r| {
                        let q = fields::get_u64(r, off::QUANTITY);
                        let newq = if q > qty + 10 { q - qty } else { q + 91 - qty };
                        fields::set_u64(r, off::QUANTITY, newq);
                    })?;
                    Ok(ActionOutput::empty())
                }));
            }
            let o_key = order_key(w, d, o_id);
            let n_lines = item_keys.len() as u64;
            let total: u64 = prices.iter().sum();
            actions.push(Action::new(ORDERS, o_key, move |ctx| {
                let mut rec = Tpcc::record(o_key);
                fields::set_u64(&mut rec, 16, n_lines);
                fields::set_u64(&mut rec, 24, total);
                match ctx.insert(ORDERS, o_key, &rec, None) {
                    Ok(()) | Err(EngineError::DuplicateKey { .. }) => {}
                    Err(e) => return Err(e),
                }
                for ol in 0..n_lines {
                    let ol_key = order_line_key(w, d, o_id, ol);
                    let rec = Tpcc::record(ol_key);
                    match ctx.insert(ORDER_LINE, ol_key, &rec, None) {
                        Ok(()) | Err(EngineError::DuplicateKey { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(ActionOutput::empty())
            }));
            TransactionPlan::parallel(actions)
        })
    }

    /// Payment: update warehouse, district and customer balances.
    fn payment(&self, w: u64, d: u64, c: u64, amount: u64) -> TransactionPlan {
        let d_key = district_key(w, d);
        let c_key = customer_key(w, d, c % self.load_customers);
        TransactionPlan::parallel(vec![
            Action::new(WAREHOUSE, w, move |ctx| {
                ctx.update(WAREHOUSE, w, &mut |r| {
                    fields::add_u64(r, off::YTD, amount as i64)
                })?;
                Ok(ActionOutput::empty())
            }),
            Action::new(DISTRICT, d_key, move |ctx| {
                ctx.update(DISTRICT, d_key, &mut |r| {
                    fields::add_u64(r, off::YTD, amount as i64)
                })?;
                Ok(ActionOutput::empty())
            }),
            Action::new(CUSTOMER, c_key, move |ctx| {
                ctx.update(CUSTOMER, c_key, &mut |r| {
                    fields::add_u64(r, off::YTD, -(amount as i64))
                })?;
                Ok(ActionOutput::empty())
            }),
        ])
    }

    /// OrderStatus: read a customer and scan their most recent order lines.
    fn order_status(&self, w: u64, d: u64, c: u64) -> TransactionPlan {
        let c_key = customer_key(w, d, c % self.load_customers);
        TransactionPlan::single(Action::new(CUSTOMER, c_key, move |ctx| {
            let mut out = ActionOutput::empty();
            if let Some(row) = ctx.read(CUSTOMER, c_key)? {
                out.rows.push(row);
            }
            let lo = order_key(w, d, 0);
            let hi = order_key(w, d, 8);
            for (_, row) in ctx.range_read(ORDERS, lo, hi)? {
                out.rows.push(row);
            }
            Ok(out)
        }))
    }
}

impl Workload for Tpcc {
    fn name(&self) -> &'static str {
        "TPC-C"
    }

    fn schema(&self) -> Vec<TableSpec> {
        let w = self.warehouses;
        vec![
            TableSpec::new(0, "warehouse", w),
            TableSpec::new(1, "district", w * DISTRICTS_PER_WAREHOUSE)
                .with_granularity(DISTRICTS_PER_WAREHOUSE)
                .aligned_with(WAREHOUSE),
            TableSpec::new(
                2,
                "customer",
                w * DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT,
            )
            .with_granularity(DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT)
            .aligned_with(WAREHOUSE),
            // `item` is routed by its own key space and deliberately declares
            // no alignment: it must never be co-repartitioned with the
            // warehouse group (the old ratio inference could not express
            // this).
            TableSpec::new(3, "item", ITEMS),
            TableSpec::new(4, "stock", w * ITEMS)
                .with_granularity(ITEMS)
                .aligned_with(WAREHOUSE),
            TableSpec::new(
                5,
                "orders",
                w * DISTRICTS_PER_WAREHOUSE * ORDERS_PER_DISTRICT,
            )
            .with_granularity(DISTRICTS_PER_WAREHOUSE * ORDERS_PER_DISTRICT)
            .aligned_with(WAREHOUSE),
            TableSpec::new(
                6,
                "order_line",
                w * DISTRICTS_PER_WAREHOUSE * ORDERS_PER_DISTRICT * MAX_ORDER_LINES,
            )
            .with_granularity(DISTRICTS_PER_WAREHOUSE * ORDERS_PER_DISTRICT * MAX_ORDER_LINES)
            .aligned_with(WAREHOUSE),
        ]
    }

    fn load(&self, db: &Database) -> Result<(), EngineError> {
        for i in 0..self.load_items {
            db.load_record(ITEM, i, &Self::record(i), None)?;
        }
        for w in 0..self.warehouses {
            db.load_record(WAREHOUSE, w, &Self::record(w), None)?;
            for i in 0..self.load_items {
                db.load_record(STOCK, stock_key(w, i), &Self::record(i), None)?;
            }
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                db.load_record(DISTRICT, district_key(w, d), &Self::record(d), None)?;
                for c in 0..self.load_customers {
                    db.load_record(CUSTOMER, customer_key(w, d, c), &Self::record(c), None)?;
                }
            }
        }
        Ok(())
    }

    fn next_transaction(&self, rng: &mut ChaCha8Rng) -> TransactionPlan {
        let w = rng.gen_range(0..self.warehouses);
        let d = rng.gen_range(0..DISTRICTS_PER_WAREHOUSE);
        let c = rng.gen_range(0..self.load_customers);
        match rng.gen_range(0..100u32) {
            0..=44 => {
                let n = rng.gen_range(5..=10usize);
                let items = (0..n)
                    .map(|_| (rng.gen_range(0..self.load_items), rng.gen_range(1..5)))
                    .collect();
                self.new_order(w, d, c, items)
            }
            45..=87 => self.payment(w, d, c, rng.gen_range(1..5_000)),
            _ => self.order_status(w, d, c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn key_encodings_nest() {
        assert_eq!(district_key(2, 3), 23);
        assert!(customer_key(2, 3, 10) > customer_key(2, 3, 9));
        assert!(order_line_key(1, 1, 5, 14) < order_line_key(1, 1, 6, 0));
        assert!(stock_key(0, ITEMS - 1) < stock_key(1, 0));
    }

    #[test]
    fn mix_produces_staged_new_orders() {
        let w = Tpcc::new(2).with_scale(500, 50);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let staged = (0..100)
            .filter(|_| w.next_transaction(&mut rng).then.is_some())
            .count();
        assert!(staged > 20, "NewOrder should be ~45% of the mix");
    }
}
