// Seeded star/snowflake schema generator shared by dashbench and the
// cardinality/optimizer tests: one SALES fact
// table with skewed foreign keys into four dimensions (CUSTOMER, PRODUCT,
// STORE, DATEDIM) plus a CATEGORY outrigger off PRODUCT (the snowflake
// arm). Skew gives the cost-based optimizer something to exploit — and the
// CUSTOMER.SEGMENT column is deliberately mis-estimable (95% of rows share
// one of 20 values) so the adaptive re-planner has a >10x estimation error
// to catch.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "sql/engine.h"

namespace dashdb {
namespace bench {

struct StarScale {
  size_t fact_rows = 1000000;
  size_t customers = 50000;
  size_t products = 20000;
  size_t stores = 1000;
  size_t dates = 2000;
  size_t categories = 25;
  uint64_t seed = 17;
};

/// Tables created (all PUBLIC, all column-organized):
///   SALES(ID, CUST_ID, PROD_ID, STORE_ID, DATE_ID, AMT, QTY)
///   CUSTOMER(CUST_ID, SEGMENT, REGION)   SEGMENT: 95% = 0, else 1..19
///   PRODUCT(PROD_ID, CAT_ID, PRICE)
///   STORE(STORE_ID, REGION)
///   DATEDIM(DATE_ID, MONTH, YEAR)
///   CATEGORY(CAT_ID, KIND)               snowflake outrigger of PRODUCT
///   RETURNS(ID, RAMT)                    second fact: 30% of SALES ids
/// Fact FKs are skewed: ~80% of rows hit the first 10% of each dimension.
class StarSchemaWorkload {
 public:
  explicit StarSchemaWorkload(StarScale scale) : scale_(scale) {}

  /// Creates and bulk-loads every table on `engine`.
  Status Setup(Engine* engine);

  const StarScale& scale() const { return scale_; }

 private:
  StarScale scale_;
};

}  // namespace bench
}  // namespace dashdb
