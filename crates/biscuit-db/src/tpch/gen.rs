//! A dbgen-style deterministic TPC-H data generator.
//!
//! Follows the TPC-H specification's cardinalities and value domains
//! closely enough that the 22 queries exercise their intended predicates
//! (date ranges, brands, containers, segments, `%green%` part names,
//! `special…requests` comments, ...). Everything is seeded, so a given
//! `(scale_factor, seed)` always produces the same database.

use biscuit_sim::rng::Rng;

use crate::value::{parse_date, Row, Value};

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const TYPE_SYLL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYLL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYLL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_SYLL1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
const CONTAINER_SYLL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
/// A 32-word subset of dbgen's P_NAME color list, keeping every color the
/// queries reference (`green`, `forest`, ...).
const COLORS: [&str; 32] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "green",
];
const COMMENT_WORDS: [&str; 16] = [
    "carefully",
    "quickly",
    "furiously",
    "silent",
    "ironic",
    "final",
    "bold",
    "express",
    "pending",
    "regular",
    "even",
    "special",
    "requests",
    "deposits",
    "accounts",
    "packages",
];
/// The standard 25 nations with their region keys.
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// A fully generated TPC-H database (in memory, ready to load).
#[derive(Debug)]
pub struct TpchData {
    /// Scale factor used.
    pub scale_factor: f64,
    /// `region` rows.
    pub region: Vec<Row>,
    /// `nation` rows.
    pub nation: Vec<Row>,
    /// `supplier` rows.
    pub supplier: Vec<Row>,
    /// `customer` rows.
    pub customer: Vec<Row>,
    /// `part` rows.
    pub part: Vec<Row>,
    /// `partsupp` rows.
    pub partsupp: Vec<Row>,
    /// `orders` rows.
    pub orders: Vec<Row>,
    /// `lineitem` rows.
    pub lineitem: Vec<Row>,
}

/// `words` (at most 8) comment words, space-separated: the words are drawn
/// first, then joined into one allocation of the exact length.
fn comment(rng: &mut Rng, words: usize) -> String {
    let mut picked = [""; 8];
    for word in &mut picked[..words] {
        *word = rng.choose(&COMMENT_WORDS).expect("non-empty list");
    }
    picked[..words].join(" ")
}

fn money(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    let cents = rng.range((lo * 100.0) as i64..=(hi * 100.0) as i64);
    cents as f64 / 100.0
}

impl TpchData {
    /// Generates a database at `scale_factor` with the given seed.
    ///
    /// Standard cardinalities: lineitem ≈ 6M×SF, orders = 1.5M×SF,
    /// customer = 150k×SF, part = 200k×SF, partsupp = 800k×SF,
    /// supplier = 10k×SF, nation = 25, region = 5.
    pub fn generate(scale_factor: f64, seed: u64) -> TpchData {
        let mut rng = Rng::seed_from_u64(seed);
        let sf = scale_factor;
        let n_supplier = ((10_000.0 * sf) as usize).max(10);
        let n_customer = ((150_000.0 * sf) as usize).max(150);
        let n_part = ((200_000.0 * sf) as usize).max(200);
        let n_orders = ((1_500_000.0 * sf) as usize).max(1500);

        let start = parse_date("1992-01-01").expect("valid literal");
        let end = parse_date("1998-08-02").expect("valid literal");
        let cutoff = parse_date("1995-06-17").expect("valid literal");

        let region: Vec<Row> = REGIONS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                vec![
                    Value::Int(i as i64),
                    Value::Str((*name).to_owned()),
                    Value::Str(comment(&mut rng, 3)),
                ]
            })
            .collect();

        let nation: Vec<Row> = NATIONS
            .iter()
            .enumerate()
            .map(|(i, &(name, region))| {
                vec![
                    Value::Int(i as i64),
                    Value::Str(name.to_owned()),
                    Value::Int(region),
                    Value::Str(comment(&mut rng, 3)),
                ]
            })
            .collect();

        let supplier: Vec<Row> = (1..=n_supplier)
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::Str(format!("Supplier#{k:09}")),
                    Value::Str(format!("addr {}", rng.range(0..100_000))),
                    Value::Int(rng.range(0..25)),
                    Value::Str(format!(
                        "{}-{:03}-{:03}-{:04}",
                        rng.range(10..35),
                        rng.range(100..1000),
                        rng.range(100..1000),
                        rng.range(1000..10_000)
                    )),
                    Value::Float(money(&mut rng, -999.99, 9999.99)),
                    Value::Str(comment(&mut rng, 5)),
                ]
            })
            .collect();

        let customer: Vec<Row> = (1..=n_customer)
            .map(|k| {
                vec![
                    Value::Int(k as i64),
                    Value::Str(format!("Customer#{k:09}")),
                    Value::Str(format!("addr {}", rng.range(0..100_000))),
                    Value::Int(rng.range(0..25)),
                    Value::Str(format!(
                        "{}-{:03}-{:03}-{:04}",
                        rng.range(10..35),
                        rng.range(100..1000),
                        rng.range(100..1000),
                        rng.range(1000..10_000)
                    )),
                    Value::Float(money(&mut rng, -999.99, 9999.99)),
                    Value::Str((*rng.choose(&SEGMENTS).expect("non-empty")).to_owned()),
                    Value::Str(comment(&mut rng, 6)),
                ]
            })
            .collect();

        let part: Vec<Row> = (1..=n_part)
            .map(|k| {
                let name: Vec<&str> = (0..5)
                    .map(|_| *rng.choose(&COLORS).expect("non-empty"))
                    .collect();
                let ty = format!(
                    "{} {} {}",
                    rng.choose(&TYPE_SYLL1).expect("non-empty"),
                    rng.choose(&TYPE_SYLL2).expect("non-empty"),
                    rng.choose(&TYPE_SYLL3).expect("non-empty"),
                );
                let container = format!(
                    "{} {}",
                    rng.choose(&CONTAINER_SYLL1).expect("non-empty"),
                    rng.choose(&CONTAINER_SYLL2).expect("non-empty"),
                );
                vec![
                    Value::Int(k as i64),
                    Value::Str(name.join(" ")),
                    Value::Str(format!("Manufacturer#{}", rng.range(1..=5))),
                    Value::Str(format!("Brand#{}{}", rng.range(1..=5), rng.range(1..=5))),
                    Value::Str(ty),
                    Value::Int(rng.range(1..=50)),
                    Value::Str(container),
                    Value::Float(money(&mut rng, 900.0, 2000.0)),
                    Value::Str(comment(&mut rng, 3)),
                ]
            })
            .collect();

        let mut partsupp: Vec<Row> = Vec::with_capacity(n_part * 4);
        for k in 1..=n_part {
            for i in 0..4 {
                let suppkey = ((k + i * (n_supplier / 4).max(1)) % n_supplier) + 1;
                partsupp.push(vec![
                    Value::Int(k as i64),
                    Value::Int(suppkey as i64),
                    Value::Int(rng.range(1..=9999)),
                    Value::Float(money(&mut rng, 1.0, 1000.0)),
                    Value::Str(comment(&mut rng, 6)),
                ]);
            }
        }

        let mut orders: Vec<Row> = Vec::with_capacity(n_orders);
        let mut lineitem: Vec<Row> = Vec::new();
        for k in 1..=n_orders {
            let orderdate = rng.range(start..=end - 151);
            let custkey = rng.range(1..=n_customer as i64);
            let lines = rng.range(1..=7);
            let mut totalprice = 0.0;
            let mut any_open = false;
            for line in 1..=lines {
                let shipdate = orderdate + rng.range(1..=121);
                let commitdate = orderdate + rng.range(30..=90);
                let receiptdate = shipdate + rng.range(1..=30);
                let quantity = rng.range(1..=50) as f64;
                let extended = money(&mut rng, 900.0, 104_950.0);
                let discount = rng.range(0..=10) as f64 / 100.0;
                let tax = rng.range(0..=8) as f64 / 100.0;
                let returnflag = if receiptdate <= cutoff {
                    if rng.bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                let linestatus = if shipdate > cutoff { "O" } else { "F" };
                any_open |= linestatus == "O";
                totalprice += extended * (1.0 - discount) * (1.0 + tax);
                lineitem.push(vec![
                    Value::Int(k as i64),
                    Value::Int(rng.range(1..=n_part as i64)),
                    Value::Int(rng.range(1..=n_supplier as i64)),
                    Value::Int(line),
                    Value::Float(quantity),
                    Value::Float(extended),
                    Value::Float(discount),
                    Value::Float(tax),
                    Value::Str(returnflag.to_owned()),
                    Value::Str(linestatus.to_owned()),
                    Value::Date(shipdate),
                    Value::Date(commitdate),
                    Value::Date(receiptdate),
                    Value::Str((*rng.choose(&INSTRUCTIONS).expect("non-empty")).to_owned()),
                    Value::Str((*rng.choose(&SHIPMODES).expect("non-empty")).to_owned()),
                    Value::Str(comment(&mut rng, 4)),
                ]);
            }
            let status = if any_open { "O" } else { "F" };
            orders.push(vec![
                Value::Int(k as i64),
                Value::Int(custkey),
                Value::Str(status.to_owned()),
                Value::Float((totalprice * 100.0).round() / 100.0),
                Value::Date(orderdate),
                Value::Str((*rng.choose(&PRIORITIES).expect("non-empty")).to_owned()),
                Value::Str(format!("Clerk#{:09}", rng.range(1..=1000))),
                Value::Int(0),
                Value::Str(comment(&mut rng, 8)),
            ]);
        }

        TpchData {
            scale_factor: sf,
            region,
            nation,
            supplier,
            customer,
            part,
            partsupp,
            orders,
            lineitem,
        }
    }

    /// Loads every table into a [`crate::Db`] (untimed bulk setup).
    ///
    /// # Errors
    ///
    /// Returns storage errors (e.g. volume too small for the scale factor).
    pub fn load_into(&self, db: &mut crate::Db) -> crate::DbResult<()> {
        use super::schema;
        db.create_table("region", schema::region(), &self.region)?;
        db.create_table("nation", schema::nation(), &self.nation)?;
        db.create_table("supplier", schema::supplier(), &self.supplier)?;
        db.create_table("customer", schema::customer(), &self.customer)?;
        db.create_table("part", schema::part(), &self.part)?;
        db.create_table("partsupp", schema::partsupp(), &self.partsupp)?;
        db.create_table("orders", schema::orders(), &self.orders)?;
        db.create_table("lineitem", schema::lineitem(), &self.lineitem)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::schema::l;

    #[test]
    fn cardinalities_scale() {
        let d = TpchData::generate(0.002, 1);
        assert_eq!(d.region.len(), 5);
        assert_eq!(d.nation.len(), 25);
        assert_eq!(d.orders.len(), 3000);
        assert!(d.lineitem.len() >= 3000); // 1..7 lines per order
        assert_eq!(d.partsupp.len(), d.part.len() * 4);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = TpchData::generate(0.001, 7);
        let b = TpchData::generate(0.001, 7);
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.orders, b.orders);
        let c = TpchData::generate(0.001, 8);
        assert_ne!(a.lineitem, c.lineitem);
    }

    #[test]
    fn lineitem_date_invariants() {
        let d = TpchData::generate(0.001, 2);
        for row in &d.lineitem {
            let ship = row[l::SHIPDATE].as_i64().unwrap();
            let receipt = row[l::RECEIPTDATE].as_i64().unwrap();
            assert!(receipt > ship, "receipt after ship");
        }
    }

    #[test]
    fn query_relevant_values_present() {
        let d = TpchData::generate(0.005, 3);
        // Q14 needs PROMO part types; Q9 needs green part names; Q13 needs
        // special/requests comments; Q19 needs Brand#xx.
        assert!(d
            .part
            .iter()
            .any(|r| r[4].as_str().unwrap().starts_with("PROMO")));
        assert!(d
            .part
            .iter()
            .any(|r| r[1].as_str().unwrap().contains("green")));
        assert!(d
            .orders
            .iter()
            .any(|r| r[8].as_str().unwrap().contains("special")));
        assert!(d
            .customer
            .iter()
            .any(|r| r[6].as_str().unwrap() == "BUILDING"));
    }

    #[test]
    fn rows_match_schemas() {
        use crate::tpch::schema;
        let d = TpchData::generate(0.001, 4);
        assert!(d
            .lineitem
            .iter()
            .all(|r| r.len() == schema::lineitem().len()));
        assert!(d.orders.iter().all(|r| r.len() == schema::orders().len()));
        assert!(d.part.iter().all(|r| r.len() == schema::part().len()));
    }
}
