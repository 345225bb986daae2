package repro.synth

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Decomposition of generated post-join rows (x_i, y_i) into a joinable table
  * pair (Section V-A, "Decomposition Into Joinable Tables").
  *
  * KeyInd: unique sequential keys — a one-to-one join, keys independent of
  * the data. KeyDep: the join key equals the value of X — a many-to-one join
  * with maximal key-feature dependence (requires discrete X). Both
  * decompositions exactly recover (X, Y) through the left join.
  */
object Decompose {

  sealed trait KeyGen { def name: String }
  case object KeyInd extends KeyGen { val name = "KeyInd" }
  case object KeyDep extends KeyGen { val name = "KeyDep" }
  val keyGens: Seq[KeyGen] = Seq(KeyInd, KeyDep)

  /** Joinable pair: `train[k, y]` (left; keys may repeat under KeyDep) and
    * `cand[k, x]` (right; under KeyDep each key maps to one X value, possibly
    * repeated across rows — the aggregation in the sketcher collapses them).
    */
  final case class Pair(train: DataFrame, cand: DataFrame)

  /** Decompose parallel value arrays. Under KeyDep the key of x_i is x_i
    * itself, which must be integral.
    */
  def apply(spark: SparkSession, xs: Array[Double], ys: Array[Double],
            keyGen: KeyGen): Pair = {
    import spark.implicits._
    val n = xs.length
    require(ys.length == n, "decompose: size mismatch")
    keyGen match {
      case KeyInd =>
        val train = (0 until n).map(i => (i.toLong, ys(i))).toDF("k", "y")
        val cand  = (0 until n).map(i => (i.toLong, xs(i))).toDF("k", "x")
        Pair(train, cand)
      case KeyDep =>
        val keys  = xs.map { x =>
          require(x == math.rint(x), s"KeyDep requires discrete X, got $x")
          x.toLong
        }
        val train = (0 until n).map(i => (keys(i), ys(i))).toDF("k", "y")
        val cand  = (0 until n).map(i => (keys(i), xs(i))).toDF("k", "x")
        Pair(train, cand)
    }
  }
}
