#include "tpch/dbgen.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/random.h"
#include "relational/date.h"
#include "relational/table_builder.h"
#include "tpch/schema.h"

namespace tqp::tpch {

namespace {

// dbgen categorical vocabularies (TPC-H specification 4.2.3).
const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};
const char* kNations[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
// nation -> region mapping per the spec.
const int kNationRegion[] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                             4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                           "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                             "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL",
                            "FOB"};
const char* kShipInstruct[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                               "TAKE BACK RETURN"};
const char* kTypeSyllable1[] = {"STANDARD", "SMALL", "MEDIUM", "LARGE",
                                "ECONOMY", "PROMO"};
const char* kTypeSyllable2[] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                                "BRUSHED"};
const char* kTypeSyllable3[] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainerSyllable1[] = {"SM", "LG", "MED", "JUMBO", "WRAP"};
const char* kContainerSyllable2[] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK",
                                     "CAN", "DRUM"};
const char* kPartNameWords[] = {
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
    "hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
    "lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
    "midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
    "orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
    "puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
    "sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
    "steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white",
    "yellow"};

constexpr int64_t kStartDate = 8035;   // 1992-01-01 in days since epoch
constexpr int64_t kEndDate = 10591;    // 1998-12-31
constexpr int64_t kCurrentDate = 9298; // 1995-06-17 (linestatus split)

std::string Comment(Rng* rng, int max_words) {
  static const char* kWords[] = {"carefully", "furiously", "quickly", "slyly",
                                 "ironic",    "regular",  "final",   "special",
                                 "pending",   "express",  "bold",    "even",
                                 "requests",  "deposits", "packages", "accounts",
                                 "instructions", "theodolites", "pinto", "beans"};
    std::string out;
  const int n = static_cast<int>(rng->Uniform(2, max_words));
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += kWords[rng->Uniform(0, 19)];
  }
  return out;
}

std::string Phone(Rng* rng, int64_t nation) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d",
                static_cast<int>(10 + nation),
                static_cast<int>(rng->Uniform(100, 999)),
                static_cast<int>(rng->Uniform(100, 999)),
                static_cast<int>(rng->Uniform(1000, 9999)));
  return buf;
}

Result<Table> GenRegion(const DbgenOptions&) {
  TQP_ASSIGN_OR_RETURN(Schema schema, TableSchema("region"));
  TableBuilder b(schema);
  Rng rng(7);
  for (int64_t i = 0; i < 5; ++i) {
    b.AppendInt(0, i);
    b.AppendString(1, kRegions[i]);
    b.AppendString(2, Comment(&rng, 8));
  }
  return b.Finish();
}

Result<Table> GenNation(const DbgenOptions&) {
  TQP_ASSIGN_OR_RETURN(Schema schema, TableSchema("nation"));
  TableBuilder b(schema);
  Rng rng(11);
  for (int64_t i = 0; i < 25; ++i) {
    b.AppendInt(0, i);
    b.AppendString(1, kNations[i]);
    b.AppendInt(2, kNationRegion[i]);
    b.AppendString(3, Comment(&rng, 8));
  }
  return b.Finish();
}

Result<Table> GenSupplier(const DbgenOptions& options) {
  TQP_ASSIGN_OR_RETURN(Schema schema, TableSchema("supplier"));
  TableBuilder b(schema);
  Rng rng(options.seed ^ 0x5157);
  const int64_t n = BaseRowCount("supplier", options.scale_factor);
  char buf[32];
  for (int64_t i = 1; i <= n; ++i) {
    const int64_t nation = rng.Uniform(0, 24);
    b.AppendInt(0, i);
    std::snprintf(buf, sizeof(buf), "Supplier#%09lld", static_cast<long long>(i));
    b.AppendString(1, buf);
    b.AppendString(2, rng.NextString(static_cast<int>(rng.Uniform(8, 30))));
    b.AppendInt(3, nation);
    b.AppendString(4, Phone(&rng, nation));
    b.AppendDouble(5, rng.UniformDouble(-999.99, 9999.99));
    b.AppendString(6, Comment(&rng, 10));
  }
  return b.Finish();
}

Result<Table> GenCustomer(const DbgenOptions& options) {
  TQP_ASSIGN_OR_RETURN(Schema schema, TableSchema("customer"));
  TableBuilder b(schema);
  Rng rng(options.seed ^ 0xC057);
  const int64_t n = BaseRowCount("customer", options.scale_factor);
  char buf[32];
  for (int64_t i = 1; i <= n; ++i) {
    const int64_t nation = rng.Uniform(0, 24);
    b.AppendInt(0, i);
    std::snprintf(buf, sizeof(buf), "Customer#%09lld", static_cast<long long>(i));
    b.AppendString(1, buf);
    b.AppendString(2, rng.NextString(static_cast<int>(rng.Uniform(8, 30))));
    b.AppendInt(3, nation);
    b.AppendString(4, Phone(&rng, nation));
    b.AppendDouble(5, rng.UniformDouble(-999.99, 9999.99));
    b.AppendString(6, kSegments[rng.Uniform(0, 4)]);
    b.AppendString(7, Comment(&rng, 12));
  }
  return b.Finish();
}

Result<Table> GenPart(const DbgenOptions& options) {
  TQP_ASSIGN_OR_RETURN(Schema schema, TableSchema("part"));
  TableBuilder b(schema);
  Rng rng(options.seed ^ 0xBA27);
  const int64_t n = BaseRowCount("part", options.scale_factor);
  char buf[32];
  for (int64_t i = 1; i <= n; ++i) {
    b.AppendInt(0, i);
    std::string name = kPartNameWords[rng.Uniform(0, 91)];
    for (int w = 0; w < 4; ++w) {
      name += ' ';
      name += kPartNameWords[rng.Uniform(0, 91)];
    }
    b.AppendString(1, name);
    const int mfgr = static_cast<int>(rng.Uniform(1, 5));
    std::snprintf(buf, sizeof(buf), "Manufacturer#%d", mfgr);
    b.AppendString(2, buf);
    std::snprintf(buf, sizeof(buf), "Brand#%d%d", mfgr,
                  static_cast<int>(rng.Uniform(1, 5)));
    b.AppendString(3, buf);
    std::string type = kTypeSyllable1[rng.Uniform(0, 5)];
    type += ' ';
    type += kTypeSyllable2[rng.Uniform(0, 4)];
    type += ' ';
    type += kTypeSyllable3[rng.Uniform(0, 4)];
    b.AppendString(4, type);
    b.AppendInt(5, rng.Uniform(1, 50));
    std::string container = kContainerSyllable1[rng.Uniform(0, 4)];
    container += ' ';
    container += kContainerSyllable2[rng.Uniform(0, 7)];
    b.AppendString(6, container);
    // dbgen: retailprice = (90000 + (partkey/10 mod 20001) + 100*(partkey mod 1000))/100
    const double price =
        (90000.0 + static_cast<double>((i / 10) % 20001) +
         100.0 * static_cast<double>(i % 1000)) /
        100.0;
    b.AppendDouble(7, price);
    b.AppendString(8, Comment(&rng, 6));
  }
  return b.Finish();
}

Result<Table> GenPartsupp(const DbgenOptions& options) {
  TQP_ASSIGN_OR_RETURN(Schema schema, TableSchema("partsupp"));
  TableBuilder b(schema);
  Rng rng(options.seed ^ 0x9A27);
  const int64_t parts = BaseRowCount("part", options.scale_factor);
  const int64_t suppliers = BaseRowCount("supplier", options.scale_factor);
  for (int64_t p = 1; p <= parts; ++p) {
    for (int64_t s = 0; s < 4; ++s) {
      // Spec supplier spreading formula keeps (partkey, suppkey) unique.
      const int64_t suppkey =
          (p + s * ((suppliers / 4) + (p - 1) / suppliers)) % suppliers + 1;
      b.AppendInt(0, p);
      b.AppendInt(1, suppkey);
      b.AppendInt(2, rng.Uniform(1, 9999));
      b.AppendDouble(3, rng.UniformDouble(1.0, 1000.0));
      b.AppendString(4, Comment(&rng, 10));
    }
  }
  return b.Finish();
}

struct OrderRows {
  Table orders;
  Table lineitem;
};

Result<OrderRows> GenOrdersAndLineitem(const DbgenOptions& options) {
  TQP_ASSIGN_OR_RETURN(Schema order_schema, TableSchema("orders"));
  TQP_ASSIGN_OR_RETURN(Schema line_schema, TableSchema("lineitem"));
  TableBuilder ob(order_schema);
  TableBuilder lb(line_schema);
  Rng rng(options.seed ^ 0x08D3);
  const int64_t orders = BaseRowCount("orders", options.scale_factor);
  const int64_t customers = BaseRowCount("customer", options.scale_factor);
  const int64_t parts = BaseRowCount("part", options.scale_factor);
  const int64_t suppliers = BaseRowCount("supplier", options.scale_factor);
  char buf[32];
  for (int64_t o = 1; o <= orders; ++o) {
    // Spec 4.2.3: O_CUSTKEY is never divisible by 3, so one third of the
    // customers have no orders (exercised by Q13 and Q22).
    int64_t custkey = rng.Uniform(1, customers);
    while (custkey % 3 == 0) custkey = rng.Uniform(1, customers);
    // Order dates span [start, end - 151 days] so line dates stay in range.
    const int64_t orderdate = rng.Uniform(kStartDate, kEndDate - 151);
    const int64_t num_lines = rng.Uniform(1, 7);
    double totalprice = 0;
    int open_lines = 0;
    for (int64_t l = 1; l <= num_lines; ++l) {
      const int64_t partkey = rng.Uniform(1, parts);
      const int64_t suppkey = rng.Uniform(1, suppliers);
      const double quantity = static_cast<double>(rng.Uniform(1, 50));
      const double retail =
          (90000.0 + static_cast<double>((partkey / 10) % 20001) +
           100.0 * static_cast<double>(partkey % 1000)) /
          100.0;
      const double extended = quantity * retail;
      const double discount =
          static_cast<double>(rng.Uniform(0, 10)) / 100.0;  // 0.00 .. 0.10
      const double tax = static_cast<double>(rng.Uniform(0, 8)) / 100.0;
      const int64_t shipdate = orderdate + rng.Uniform(1, 121);
      const int64_t commitdate = orderdate + rng.Uniform(30, 90);
      const int64_t receiptdate = shipdate + rng.Uniform(1, 30);
      const bool shipped = shipdate > kCurrentDate;
      const char* linestatus = shipped ? "O" : "F";
      // Returnflag: items received before the current date may be returned.
      const char* returnflag;
      if (receiptdate <= kCurrentDate) {
        returnflag = rng.Bernoulli(0.5) ? "R" : "A";
      } else {
        returnflag = "N";
      }
      if (shipped) ++open_lines;
      totalprice += extended * (1.0 + tax) * (1.0 - discount);
      lb.AppendInt(0, o);
      lb.AppendInt(1, partkey);
      lb.AppendInt(2, suppkey);
      lb.AppendInt(3, l);
      lb.AppendDouble(4, quantity);
      lb.AppendDouble(5, extended);
      lb.AppendDouble(6, discount);
      lb.AppendDouble(7, tax);
      lb.AppendString(8, returnflag);
      lb.AppendString(9, linestatus);
      lb.AppendInt(10, shipdate);
      lb.AppendInt(11, commitdate);
      lb.AppendInt(12, receiptdate);
      lb.AppendString(13, kShipInstruct[rng.Uniform(0, 3)]);
      lb.AppendString(14, kShipModes[rng.Uniform(0, 6)]);
      lb.AppendString(15, Comment(&rng, 6));
    }
    const char* status = open_lines == num_lines ? "O"
                         : open_lines == 0       ? "F"
                                                 : "P";
    ob.AppendInt(0, o);
    ob.AppendInt(1, custkey);
    ob.AppendString(2, status);
    ob.AppendDouble(3, totalprice);
    ob.AppendInt(4, orderdate);
    ob.AppendString(5, kPriorities[rng.Uniform(0, 4)]);
    std::snprintf(buf, sizeof(buf), "Clerk#%09d",
                  static_cast<int>(rng.Uniform(1, std::max<int64_t>(1, orders / 1000))));
    ob.AppendString(6, buf);
    ob.AppendInt(7, 0);
    ob.AppendString(8, Comment(&rng, 12));
  }
  OrderRows out;
  TQP_ASSIGN_OR_RETURN(out.orders, ob.Finish());
  TQP_ASSIGN_OR_RETURN(out.lineitem, lb.Finish());
  return out;
}

}  // namespace

Result<Table> GenerateTable(const std::string& table, const DbgenOptions& options) {
  if (table == "region") return GenRegion(options);
  if (table == "nation") return GenNation(options);
  if (table == "supplier") return GenSupplier(options);
  if (table == "customer") return GenCustomer(options);
  if (table == "part") return GenPart(options);
  if (table == "partsupp") return GenPartsupp(options);
  if (table == "orders" || table == "lineitem") {
    TQP_ASSIGN_OR_RETURN(OrderRows rows, GenOrdersAndLineitem(options));
    return table == "orders" ? rows.orders : rows.lineitem;
  }
  return Status::KeyError("unknown TPC-H table '" + table + "'");
}

Status GenerateAll(const DbgenOptions& options, Catalog* catalog) {
  for (const std::string& name : TableNames()) {
    if (name == "lineitem") continue;  // generated together with orders
    if (name == "orders") {
      TQP_ASSIGN_OR_RETURN(OrderRows rows, GenOrdersAndLineitem(options));
      catalog->RegisterTable("orders", std::move(rows.orders));
      catalog->RegisterTable("lineitem", std::move(rows.lineitem));
      continue;
    }
    TQP_ASSIGN_OR_RETURN(Table t, GenerateTable(name, options));
    catalog->RegisterTable(name, std::move(t));
  }
  // The single-column primary keys; each is verified as it is declared.
  for (const auto& [table, column] :
       {std::pair{"orders", "o_orderkey"}, std::pair{"customer", "c_custkey"},
        std::pair{"part", "p_partkey"}, std::pair{"supplier", "s_suppkey"},
        std::pair{"nation", "n_nationkey"}, std::pair{"region", "r_regionkey"}}) {
    TQP_RETURN_NOT_OK(catalog->DeclarePrimaryKey(table, column));
  }
  return Status::OK();
}

}  // namespace tqp::tpch
