// End-to-end SQL tests: lexer/parser, DDL/DML, SELECT planning (pushdown,
// joins, aggregation), and the four dialect surfaces of paper II.C.
#include <gtest/gtest.h>

#include "sql/engine.h"

namespace dashdb {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : engine_(EngineConfig{}), session_(engine_.CreateSession()) {}

  QueryResult Exec(const std::string& sql) {
    auto r = engine_.Execute(session_.get(), sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  Status ExecErr(const std::string& sql) {
    auto r = engine_.Execute(session_.get(), sql);
    EXPECT_FALSE(r.ok()) << sql << " unexpectedly succeeded";
    return r.status();
  }

  /// First cell of the single-row result, as a string.
  std::string Scalar(const std::string& sql) {
    QueryResult r = Exec(sql);
    if (r.rows.num_rows() == 0 || r.rows.columns.empty()) return "<empty>";
    return r.rows.columns[0].GetValue(0).ToString();
  }

  void Seed() {
    Exec("CREATE TABLE emp (id INT NOT NULL, name VARCHAR(20), dept INT, "
         "salary DOUBLE, hired DATE)");
    Exec("INSERT INTO emp VALUES "
         "(1, 'alice', 10, 100.0, DATE '2015-01-15'), "
         "(2, 'bob', 10, 90.0, DATE '2015-06-01'), "
         "(3, 'carol', 20, 120.0, DATE '2016-03-20'), "
         "(4, 'dan', 20, 80.0, DATE '2016-09-09'), "
         "(5, 'eve', 30, 150.0, DATE '2017-01-02')");
    Exec("CREATE TABLE dept (dept_id INT, dept_name VARCHAR(20))");
    Exec("INSERT INTO dept VALUES (10, 'eng'), (20, 'sales'), (40, 'empty')");
  }

  Engine engine_;
  std::shared_ptr<Session> session_;
};

// ----------------------------------------------------------------- basics --

TEST_F(SqlTest, CreateInsertSelect) {
  Seed();
  QueryResult r = Exec("SELECT id, name FROM emp WHERE id = 3");
  ASSERT_EQ(r.rows.num_rows(), 1u);
  EXPECT_EQ(r.rows.columns[1].GetString(0), "carol");
  EXPECT_EQ(r.columns[0].name, "ID");
}

TEST_F(SqlTest, SelectStar) {
  Seed();
  QueryResult r = Exec("SELECT * FROM emp");
  EXPECT_EQ(r.rows.num_rows(), 5u);
  EXPECT_EQ(r.columns.size(), 5u);
}

TEST_F(SqlTest, WherePushdownRangesAndResiduals) {
  Seed();
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE salary >= 90 AND "
                   "salary <= 120"),
            "3");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE hired BETWEEN "
                   "DATE '2016-01-01' AND DATE '2016-12-31'"),
            "2");
  // Residual (non-sargable) predicate.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE MOD(id, 2) = 1"), "3");
  // String-literal vs DATE column coercion.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE hired >= '2016-01-01'"),
            "3");
}

TEST_F(SqlTest, OrderByAndLimit) {
  Seed();
  QueryResult r =
      Exec("SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2");
  ASSERT_EQ(r.rows.num_rows(), 2u);
  EXPECT_EQ(r.rows.columns[0].GetString(0), "eve");
  EXPECT_EQ(r.rows.columns[0].GetString(1), "carol");
  // ORDER BY ordinal (Netezza/PG, paper II.C.1.b).
  QueryResult r2 = Exec("SELECT name, salary FROM emp ORDER BY 2 LIMIT 1");
  EXPECT_EQ(r2.rows.columns[0].GetString(0), "dan");
  // OFFSET.
  QueryResult r3 =
      Exec("SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2");
  ASSERT_EQ(r3.rows.num_rows(), 2u);
  EXPECT_EQ(r3.rows.columns[0].GetInt(0), 3);
}

TEST_F(SqlTest, FetchFirstRowsOnly) {
  Seed();
  QueryResult r = Exec("SELECT id FROM emp ORDER BY id FETCH FIRST 3 ROWS ONLY");
  EXPECT_EQ(r.rows.num_rows(), 3u);
}

TEST_F(SqlTest, GroupByHaving) {
  Seed();
  QueryResult r = Exec(
      "SELECT dept, COUNT(*) n, AVG(salary) avg_sal FROM emp "
      "GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY dept");
  ASSERT_EQ(r.rows.num_rows(), 2u);
  EXPECT_EQ(r.rows.columns[0].GetInt(0), 10);
  EXPECT_EQ(r.rows.columns[1].GetInt(0), 2);
  EXPECT_DOUBLE_EQ(r.rows.columns[2].GetDouble(0), 95.0);
}

TEST_F(SqlTest, GroupByOutputName) {
  Seed();
  // Netezza: GROUP BY references the output column name (paper II.C.1.b).
  QueryResult r = Exec(
      "SELECT dept AS d, SUM(salary) FROM emp GROUP BY d ORDER BY d");
  EXPECT_EQ(r.rows.num_rows(), 3u);
}

TEST_F(SqlTest, AggregatesAcrossDialects) {
  Seed();
  EXPECT_EQ(Scalar("SELECT MEDIAN(salary) FROM emp"), "100");
  EXPECT_EQ(Scalar("SELECT STDDEV_POP(salary) FROM emp"),
            Scalar("SELECT SQRT(VAR_POP(salary)) FROM emp"));
  // DB2 VARIANCE == sample variance (n-1).
  EXPECT_EQ(Scalar("SELECT VARIANCE(salary) FROM emp"),
            Scalar("SELECT VAR_SAMP(salary) FROM emp"));
  EXPECT_EQ(Scalar("SELECT COVARIANCE(salary, salary) FROM emp"),
            Scalar("SELECT COVAR_POP(salary, salary) FROM emp"));
  EXPECT_EQ(Scalar("SELECT COUNT(DISTINCT dept) FROM emp"), "3");
  EXPECT_EQ(Scalar("SELECT PERCENTILE_DISC(0.5) WITHIN GROUP "
                   "(ORDER BY salary) FROM emp"),
            "100");
}

TEST_F(SqlTest, Joins) {
  Seed();
  QueryResult r = Exec(
      "SELECT e.name, d.dept_name FROM emp e JOIN dept d "
      "ON e.dept = d.dept_id WHERE d.dept_name = 'eng' ORDER BY e.name");
  ASSERT_EQ(r.rows.num_rows(), 2u);
  EXPECT_EQ(r.rows.columns[0].GetString(0), "alice");
  // LEFT JOIN: dept 30 has no dept row.
  QueryResult l = Exec(
      "SELECT e.name, d.dept_name FROM emp e LEFT JOIN dept d "
      "ON e.dept = d.dept_id WHERE e.id = 5");
  ASSERT_EQ(l.rows.num_rows(), 1u);
  EXPECT_TRUE(l.rows.columns[1].IsNull(0));
}

TEST_F(SqlTest, CommaJoinWithWhereEquiBecomesHashJoin) {
  Seed();
  QueryResult r = Exec(
      "SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.dept_id");
  EXPECT_EQ(r.rows.columns[0].GetInt(0), 4);  // eve's dept 30 unmatched
  // EXPLAIN confirms a hash join (not a nested loop).
  QueryResult ex = Exec(
      "EXPLAIN SELECT COUNT(*) FROM emp e, dept d WHERE e.dept = d.dept_id");
  EXPECT_NE(ex.message.find("HashJoin"), std::string::npos) << ex.message;
}

TEST_F(SqlTest, JoinUsing) {
  Seed();
  Exec("CREATE TABLE emp2 (id INT, bonus DOUBLE)");
  Exec("INSERT INTO emp2 VALUES (1, 5.0), (2, 6.0)");
  QueryResult r = Exec(
      "SELECT COUNT(*) FROM emp JOIN emp2 USING (id)");
  EXPECT_EQ(r.rows.columns[0].GetInt(0), 2);
}

TEST_F(SqlTest, OracleOuterJoinPlusSyntax) {
  Seed();
  session_->set_dialect(Dialect::kOracle);
  // dept 30 (eve) has no dept row -> survives via (+).
  QueryResult r = Exec(
      "SELECT e.name, d.dept_name FROM emp e, dept d "
      "WHERE e.dept = d.dept_id (+) ORDER BY e.name");
  ASSERT_EQ(r.rows.num_rows(), 5u);
  EXPECT_TRUE(r.rows.columns[1].IsNull(4));  // eve
}

TEST_F(SqlTest, SubqueryInFrom) {
  Seed();
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM "
                   "(SELECT dept FROM emp WHERE salary > 85) t"),
            "4");
}

TEST_F(SqlTest, WithCte) {
  Seed();
  QueryResult r = Exec(
      "WITH rich AS (SELECT * FROM emp WHERE salary >= 100), "
      "depts AS (SELECT DISTINCT dept FROM rich) "
      "SELECT COUNT(*) FROM depts");
  EXPECT_EQ(r.rows.columns[0].GetInt(0), 3);
}

TEST_F(SqlTest, DistinctAndUnionSemantics) {
  Seed();
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM (SELECT DISTINCT dept FROM emp) t"),
            "3");
}

TEST_F(SqlTest, UpdateAndDelete) {
  Seed();
  QueryResult u = Exec("UPDATE emp SET salary = salary * 2 WHERE dept = 10");
  EXPECT_EQ(u.affected_rows, 2);
  EXPECT_EQ(Scalar("SELECT SUM(salary) FROM emp WHERE dept = 10"), "380");
  QueryResult d = Exec("DELETE FROM emp WHERE dept = 20");
  EXPECT_EQ(d.affected_rows, 2);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp"), "3");
}

TEST_F(SqlTest, TruncateAndDrop) {
  Seed();
  Exec("TRUNCATE TABLE emp");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp"), "0");
  Exec("DROP TABLE emp");
  EXPECT_EQ(ExecErr("SELECT * FROM emp").code(), StatusCode::kNotFound);
  Exec("DROP TABLE IF EXISTS emp");  // no error
}

TEST_F(SqlTest, InsertSelect) {
  Seed();
  Exec("CREATE TABLE emp_copy (id INT, name VARCHAR(20))");
  QueryResult r = Exec("INSERT INTO emp_copy SELECT id, name FROM emp");
  EXPECT_EQ(r.affected_rows, 5);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp_copy"), "5");
}

TEST_F(SqlTest, InsertColumnSubset) {
  Seed();
  Exec("INSERT INTO emp (id, name) VALUES (99, 'zed')");
  QueryResult r = Exec("SELECT salary FROM emp WHERE id = 99");
  EXPECT_TRUE(r.rows.columns[0].IsNull(0));
}

TEST_F(SqlTest, NotNullEnforced) {
  Seed();
  EXPECT_EQ(ExecErr("INSERT INTO emp (name) VALUES ('noid')").code(),
            StatusCode::kSemanticError);
}

TEST_F(SqlTest, UniqueConstraint) {
  Exec("CREATE TABLE u (k INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO u VALUES (1, 1)");
  EXPECT_EQ(ExecErr("INSERT INTO u VALUES (1, 2)").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(SqlTest, Views) {
  Seed();
  Exec("CREATE VIEW v_eng AS SELECT name FROM emp WHERE dept = 10");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM v_eng"), "2");
  // Views re-plan against current data.
  Exec("INSERT INTO emp VALUES (6, 'fred', 10, 70.0, DATE '2017-02-02')");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM v_eng"), "3");
}

TEST_F(SqlTest, Explain) {
  Seed();
  QueryResult r = Exec("EXPLAIN SELECT dept, COUNT(*) FROM emp "
                       "WHERE salary > 50 GROUP BY dept");
  EXPECT_NE(r.message.find("ColumnScan"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("HashAggregate"), std::string::npos);
}

TEST_F(SqlTest, CountStarJoinScansOnlyReferencedColumns) {
  Seed();
  // emp has 5 columns and dept 2; the query reads emp.dept, emp.salary
  // and dept.dept_id. The `*` of COUNT(*) must not widen either scan.
  const std::string sql =
      "SELECT COUNT(*), SUM(e.salary) FROM emp e JOIN dept d "
      "ON e.dept = d.dept_id";
  QueryResult plan = Exec("EXPLAIN " + sql);
  EXPECT_NE(plan.message.find("ColumnScan(PUBLIC.EMP preds=0 cols=2)"),
            std::string::npos)
      << plan.message;
  EXPECT_NE(plan.message.find("ColumnScan(PUBLIC.DEPT preds=0 cols=1)"),
            std::string::npos)
      << plan.message;
  EXPECT_EQ(plan.message.find("cols=5"), std::string::npos) << plan.message;
  // Same rows as spelling every column out: alice, bob, carol and dan
  // match a department; eve (dept 30) does not.
  QueryResult r = Exec(sql);
  ASSERT_EQ(r.rows.num_rows(), 1u);
  EXPECT_EQ(r.rows.columns[0].GetInt(0), 4);
  EXPECT_DOUBLE_EQ(r.rows.columns[1].GetDouble(0), 390.0);
  QueryResult wide = Exec(
      "SELECT COUNT(*), SUM(e.salary) FROM (SELECT * FROM emp) e JOIN "
      "(SELECT * FROM dept) d ON e.dept = d.dept_id");
  ASSERT_EQ(wide.rows.num_rows(), 1u);
  EXPECT_EQ(wide.rows.columns[0].GetInt(0), 4);
  EXPECT_DOUBLE_EQ(wide.rows.columns[1].GetDouble(0), 390.0);
  // A bare COUNT(*) still scans a single column.
  QueryResult count = Exec("EXPLAIN SELECT COUNT(*) FROM emp e, dept d");
  EXPECT_EQ(count.message.find("cols=5"), std::string::npos) << count.message;
}

TEST_F(SqlTest, OrderByAliasScansNoSameNamedColumn) {
  Seed();
  // NAME is an alias of d.dept_name and also a column of emp. ORDER BY
  // NAME orders by the alias, so emp's scan reads dept and salary only.
  const std::string sql =
      "SELECT d.dept_name AS name, SUM(e.salary) AS total FROM emp e "
      "JOIN dept d ON e.dept = d.dept_id GROUP BY d.dept_name ORDER BY name";
  QueryResult plan = Exec("EXPLAIN " + sql);
  EXPECT_NE(plan.message.find("ColumnScan(PUBLIC.EMP preds=0 cols=2)"),
            std::string::npos)
      << plan.message;
  QueryResult r = Exec(sql);
  QueryResult renamed = Exec(
      "SELECT d.dept_name AS dname, SUM(e.salary) AS total FROM emp e "
      "JOIN dept d ON e.dept = d.dept_id GROUP BY d.dept_name ORDER BY dname");
  ASSERT_EQ(r.rows.num_rows(), 2u);
  ASSERT_EQ(renamed.rows.num_rows(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(r.rows.columns[c].GetValue(i).ToString(),
                renamed.rows.columns[c].GetValue(i).ToString());
    }
  }
  EXPECT_EQ(r.rows.columns[0].GetString(0), "eng");
  // The alias still wins over the same-named column: salary order
  // (dan 80, bob 90, alice 100, carol 120, eve 150), not name order.
  plan = Exec("EXPLAIN SELECT id, salary AS name FROM emp ORDER BY name");
  EXPECT_NE(plan.message.find("ColumnScan(PUBLIC.EMP preds=0 cols=2)"),
            std::string::npos)
      << plan.message;
  r = Exec("SELECT id, salary AS name FROM emp ORDER BY name");
  ASSERT_EQ(r.rows.num_rows(), 5u);
  const int64_t want[] = {4, 2, 1, 3, 5};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(r.rows.columns[0].GetInt(i), want[i]) << i;
  }
}

TEST_F(SqlTest, CaseExpressions) {
  Seed();
  QueryResult r = Exec(
      "SELECT name, CASE WHEN salary >= 120 THEN 'high' "
      "WHEN salary >= 90 THEN 'mid' ELSE 'low' END band "
      "FROM emp ORDER BY id");
  EXPECT_EQ(r.rows.columns[1].GetString(0), "mid");
  EXPECT_EQ(r.rows.columns[1].GetString(3), "low");
  // Simple (operand) form.
  EXPECT_EQ(Scalar("SELECT CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END "
                   "FROM dual"),
            "b");
}

TEST_F(SqlTest, InAndLike) {
  Seed();
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE dept IN (10, 30)"), "3");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE name LIKE '%a%'"), "3");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE name NOT LIKE 'a%'"), "4");
}

// ------------------------------------------------------- Oracle dialect --

TEST_F(SqlTest, OracleDualAndRownum) {
  session_->set_dialect(Dialect::kOracle);
  EXPECT_EQ(Scalar("SELECT 1 + 1 FROM DUAL"), "2");
  EXPECT_EQ(Scalar("SELECT DUMMY FROM DUAL"), "X");
  Seed();
  QueryResult r = Exec("SELECT name FROM emp WHERE ROWNUM <= 3");
  EXPECT_EQ(r.rows.num_rows(), 3u);
  QueryResult r2 = Exec("SELECT ROWNUM, name FROM emp WHERE ROWNUM <= 2");
  ASSERT_EQ(r2.rows.num_rows(), 2u);
  EXPECT_EQ(r2.rows.columns[0].GetInt(0), 1);
}

TEST_F(SqlTest, OracleFunctionsInSql) {
  session_->set_dialect(Dialect::kOracle);
  EXPECT_EQ(Scalar("SELECT NVL(NULL, 'x') FROM DUAL"), "x");
  EXPECT_EQ(Scalar("SELECT DECODE(2, 1, 'one', 2, 'two', 'other') FROM DUAL"),
            "two");
  EXPECT_EQ(Scalar("SELECT SUBSTR('hello', 2, 3) FROM DUAL"), "ell");
  EXPECT_EQ(Scalar("SELECT LPAD('7', 3, '0') FROM DUAL"), "007");
  EXPECT_EQ(Scalar("SELECT TO_CHAR(DATE '2017-04-01', 'YYYY-MM-DD') "
                   "FROM DUAL"),
            "2017-04-01");
  EXPECT_EQ(Scalar("SELECT GREATEST(3, 9, 4) FROM DUAL"), "9");
}

TEST_F(SqlTest, OracleSequences) {
  session_->set_dialect(Dialect::kOracle);
  Exec("CREATE SEQUENCE s1");
  EXPECT_EQ(Scalar("SELECT s1.NEXTVAL FROM DUAL"), "1");
  EXPECT_EQ(Scalar("SELECT s1.NEXTVAL FROM DUAL"), "2");
  EXPECT_EQ(Scalar("SELECT s1.CURRVAL FROM DUAL"), "2");
  // DB2 spelling against the same sequence.
  EXPECT_EQ(Scalar("SELECT NEXT VALUE FOR s1 FROM DUAL"), "3");
}

TEST_F(SqlTest, OracleConnectBy) {
  session_->set_dialect(Dialect::kOracle);
  Exec("CREATE TABLE org (id INT, mgr INT, name VARCHAR(20))");
  Exec("INSERT INTO org VALUES (1, NULL, 'ceo'), (2, 1, 'vp1'), "
       "(3, 1, 'vp2'), (4, 2, 'dir1'), (5, 4, 'ic1')");
  QueryResult r = Exec(
      "SELECT name, LEVEL FROM org START WITH mgr IS NULL "
      "CONNECT BY PRIOR id = mgr ORDER BY LEVEL, name");
  ASSERT_EQ(r.rows.num_rows(), 5u);
  EXPECT_EQ(r.rows.columns[0].GetString(0), "ceo");
  EXPECT_EQ(r.rows.columns[1].GetInt(4), 4);  // ic1 at level 4
}

TEST_F(SqlTest, OracleEmptyStringIsNullSemantics) {
  // Paper II.C.2: VARCHAR2 comparison semantics differ per dialect.
  Seed();
  Exec("INSERT INTO emp VALUES (7, '', 10, 1.0, NULL)");
  session_->set_dialect(Dialect::kOracle);
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE name IS NULL"), "1");
  session_->set_dialect(Dialect::kAnsi);
  // Under ANSI the empty string is a value, not NULL — but the residual
  // IS NULL check sees the stored empty string as non-null.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE name IS NULL"), "0");
}

TEST_F(SqlTest, ViewRemembersCreationDialect) {
  // Paper II.C.2: objects keep the dialect they were created under.
  Seed();
  Exec("INSERT INTO emp VALUES (7, '', 10, 1.0, NULL)");
  session_->set_dialect(Dialect::kOracle);
  Exec("CREATE VIEW v_nullname AS SELECT id FROM emp WHERE name IS NULL");
  session_->set_dialect(Dialect::kAnsi);
  // Even queried under ANSI, the view evaluates with Oracle semantics.
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM v_nullname"), "1");
}

// ------------------------------------------- Netezza/PostgreSQL dialect --

TEST_F(SqlTest, NetezzaCastsAndPredicates) {
  session_->set_dialect(Dialect::kNetezza);
  Seed();
  EXPECT_EQ(Scalar("SELECT '42'::INT4 + 1 FROM dual"), "43");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE name ISNULL"), "0");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp WHERE name NOTNULL"), "5");
  EXPECT_EQ(Scalar("SELECT (salary > 100) ISTRUE FROM emp WHERE id = 5"),
            "true");
}

TEST_F(SqlTest, NetezzaOverlaps) {
  session_->set_dialect(Dialect::kNetezza);
  EXPECT_EQ(Scalar("SELECT (DATE '2017-01-01', DATE '2017-03-01') OVERLAPS "
                   "(DATE '2017-02-01', DATE '2017-04-01') FROM dual"),
            "true");
  EXPECT_EQ(Scalar("SELECT (DATE '2017-01-01', DATE '2017-02-01') OVERLAPS "
                   "(DATE '2017-03-01', DATE '2017-04-01') FROM dual"),
            "false");
}

TEST_F(SqlTest, NetezzaTempTable) {
  session_->set_dialect(Dialect::kNetezza);
  Exec("CREATE TEMP TABLE scratch (x INT4)");
  Exec("INSERT INTO session.scratch VALUES (1), (2)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM session.scratch"), "2");
}

// ----------------------------------------------------------- DB2 dialect --

TEST_F(SqlTest, Db2ValuesClause) {
  session_->set_dialect(Dialect::kDb2);
  QueryResult r = Exec("VALUES (1, 'a'), (2, 'b')");
  ASSERT_EQ(r.rows.num_rows(), 2u);
  EXPECT_EQ(r.rows.columns[1].GetString(1), "b");
  EXPECT_EQ(Scalar("VALUES 41 + 1"), "42");
}

TEST_F(SqlTest, Db2DeclareGlobalTemporary) {
  session_->set_dialect(Dialect::kDb2);
  Exec("DECLARE GLOBAL TEMPORARY TABLE tmp1 (x INT) ON COMMIT PRESERVE ROWS");
  Exec("INSERT INTO session.tmp1 VALUES (5)");
  EXPECT_EQ(Scalar("SELECT x FROM session.tmp1"), "5");
}

TEST_F(SqlTest, Db2CreateAlias) {
  Seed();
  Exec("CREATE ALIAS staff FOR emp");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM staff"), "5");
  // Alias shares storage: inserts through one name are visible via other.
  Exec("INSERT INTO staff VALUES (9, 'zoe', 10, 75.0, NULL)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM emp"), "6");
}

// ------------------------------------------------------ session control --

TEST_F(SqlTest, SetDialectStatement) {
  Exec("SET SQL_DIALECT = NETEZZA");
  EXPECT_EQ(session_->dialect(), Dialect::kNetezza);
  Exec("SET SQL_DIALECT ORACLE");
  EXPECT_EQ(session_->dialect(), Dialect::kOracle);
  EXPECT_EQ(ExecErr("SET SQL_DIALECT = KLINGON").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SqlTest, ScriptExecution) {
  auto r = engine_.ExecuteScript(
      session_.get(),
      "CREATE TABLE s1 (x INT); INSERT INTO s1 VALUES (1), (2); "
      "SELECT SUM(x) FROM s1;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.columns[0].GetInt(0), 3);
}

TEST_F(SqlTest, ParseErrors) {
  EXPECT_EQ(ExecErr("SELEC 1").code(), StatusCode::kParseError);
  EXPECT_EQ(ExecErr("SELECT 1 FROM").code(), StatusCode::kParseError);
  EXPECT_EQ(ExecErr("SELECT 'unterminated").code(), StatusCode::kParseError);
  EXPECT_EQ(ExecErr("SELECT no_col FROM dual").code(),
            StatusCode::kSemanticError);
  EXPECT_EQ(ExecErr("SELECT NO_SUCH_FN(1) FROM dual").code(),
            StatusCode::kSemanticError);
}

TEST_F(SqlTest, CallUnknownProcedure) {
  EXPECT_EQ(ExecErr("CALL NO_SUCH_PROC(1)").code(), StatusCode::kNotFound);
}

TEST_F(SqlTest, RegisteredProcedure) {
  engine_.RegisterProcedure(
      "ECHO", [](const std::vector<Value>& args, Session*, Engine*)
                  -> Result<QueryResult> {
        QueryResult r;
        r.message = "echo:" + args[0].ToString();
        return r;
      });
  QueryResult r = Exec("CALL ECHO(42)");
  EXPECT_EQ(r.message, "echo:42");
}

TEST_F(SqlTest, RowOrganizedTables) {
  Exec("CREATE TABLE rowtab (id INT, v VARCHAR(10)) ORGANIZE BY ROW");
  Exec("INSERT INTO rowtab VALUES (1, 'a'), (2, 'b')");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM rowtab WHERE id = 2"), "1");
  QueryResult ex = Exec("EXPLAIN SELECT * FROM rowtab");
  EXPECT_NE(ex.message.find("RowScan"), std::string::npos);
  Exec("UPDATE rowtab SET v = 'c' WHERE id = 1");
  EXPECT_EQ(Scalar("SELECT v FROM rowtab WHERE id = 1"), "c");
}

TEST_F(SqlTest, ConcatOperator) {
  EXPECT_EQ(Scalar("SELECT 'a' || 'b' || 'c' FROM dual"), "abc");
}

TEST_F(SqlTest, ArithmeticPrecedence) {
  EXPECT_EQ(Scalar("SELECT 2 + 3 * 4 FROM dual"), "14");
  EXPECT_EQ(Scalar("SELECT (2 + 3) * 4 FROM dual"), "20");
  EXPECT_EQ(Scalar("SELECT -5 + 10 FROM dual"), "5");
}

TEST_F(SqlTest, DateLiteralArithmetic) {
  EXPECT_EQ(Scalar("SELECT DATE '2017-01-31' + 1 FROM dual"), "2017-02-01");
  EXPECT_EQ(Scalar("SELECT DATE '2017-01-31' - DATE '2017-01-01' FROM dual"),
            "30");
}

TEST_F(SqlTest, InsertNullAndThreeValuedWhere) {
  Exec("CREATE TABLE n (x INT)");
  Exec("INSERT INTO n VALUES (1), (NULL), (3)");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM n WHERE x > 0"), "2");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM n WHERE NOT (x > 0)"), "0");
  EXPECT_EQ(Scalar("SELECT COUNT(x) FROM n"), "2");
  EXPECT_EQ(Scalar("SELECT COUNT(*) FROM n"), "3");
}

}  // namespace
}  // namespace dashdb
