//! The Django-style presentation templates for all 14 TPC-W pages.
//!
//! These mirror the paper's template half of its TPC-W implementation
//! ("704 lines of template code (most of which is pure HTML)"): plain
//! HTML skeletons with variable tags, loops, and includes.

use staged_templates::{TemplateError, TemplateStore};

const HEADER: &str = r#"<html>
<head>
  <title>{{ title }} - TPC-W Bookstore</title>
  <link rel="stylesheet" href="/css/site.css">
</head>
<body>
<table width="100%"><tr>
  <td><a href="/home?c_id={{ c_id|default:0 }}"><img src="/img/thumb_0.gif" alt="logo"></a></td>
  <td><h1>{{ title }}</h1></td>
  <td align="right">
    <a href="/search_request?c_id={{ c_id|default:0 }}">Search</a> |
    <a href="/shopping_cart?c_id={{ c_id|default:0 }}">Cart</a> |
    <a href="/order_inquiry?c_id={{ c_id|default:0 }}">Your Orders</a>
  </td>
</tr></table>
<hr>
"#;

const FOOTER: &str = r#"<hr>
<p align="center"><small>TPC-W benchmark bookstore &mdash; generated content.</small></p>
</body>
</html>
"#;

const ITEM_ROW: &str = r#"<tr>
  <td><img src="{{ item.thumbnail }}" alt="cover" width="50"></td>
  <td><a href="/product_detail?i_id={{ item.id }}&c_id={{ c_id|default:0 }}">{{ item.title }}</a></td>
  <td>{{ item.fname }} {{ item.lname }}</td>
  <td align="right">${{ item.cost|floatformat:2 }}</td>
</tr>
"#;

const HOME: &str = r#"{% include "header.html" %}
{% if customer %}
  <h2 align="center">Welcome back, {{ customer.0.fname }} {{ customer.0.lname }}!</h2>
{% else %}
  <h2 align="center">Welcome to the TPC-W Bookstore</h2>
{% endif %}
<h3>Promotional items</h3>
<table>
{% for item in promotions %}{% include "item_row.html" %}{% endfor %}
</table>
<h3>Browse subjects</h3>
<ul>
{% for subject in subjects %}
  <li><a href="/new_products?subject={{ subject|urlencode }}&c_id={{ c_id|default:0 }}">{{ subject|title }}</a></li>
{% endfor %}
</ul>
{% include "footer.html" %}"#;

const NEW_PRODUCTS: &str = r#"{% include "header.html" %}
<h2>New releases in {{ subject|title }}</h2>
<table>
{% for item in items %}{% include "item_row.html" %}{% empty %}
<tr><td>No items in this subject.</td></tr>
{% endfor %}
</table>
<p>{{ items|length }} title{{ items|length|pluralize }} listed.</p>
{% include "footer.html" %}"#;

const BEST_SELLERS: &str = r#"{% include "header.html" %}
<h2>Best sellers in {{ subject|title }}</h2>
<table>
<tr><th></th><th>Title</th><th>Author</th><th>Price</th></tr>
{% for item in items %}{% include "item_row.html" %}{% empty %}
<tr><td>No recent sales in this subject.</td></tr>
{% endfor %}
</table>
{% include "footer.html" %}"#;

const PRODUCT_DETAIL: &str = r#"{% include "header.html" %}
<table><tr>
<td><img src="{{ item.0.thumbnail }}" alt="cover" width="200"></td>
<td>
  <h2>{{ item.0.title }}</h2>
  <p>by {{ item.0.fname }} {{ item.0.lname }}</p>
  <p>Subject: {{ item.0.subject|title }}</p>
  <p>Suggested retail: <strike>${{ item.0.srp|floatformat:2 }}</strike>
     Our price: <b>${{ item.0.cost|floatformat:2 }}</b>
     {% if in_stock %}<em>In stock ({{ stock }})</em>{% else %}<em>Backordered</em>{% endif %}</p>
  <form action="/shopping_cart" method="get">
    <input type="hidden" name="c_id" value="{{ c_id|default:0 }}">
    <input type="hidden" name="i_id" value="{{ item.0.id }}">
    <input type="submit" value="Add to cart">
  </form>
  <p><a href="/admin_request?i_id={{ item.0.id }}&c_id={{ c_id|default:0 }}">Edit (admin)</a></p>
</td>
</tr></table>
{% include "footer.html" %}"#;

const SEARCH_REQUEST: &str = r#"{% include "header.html" %}
<h2>Search the store</h2>
<form action="/execute_search" method="get">
  <input type="hidden" name="c_id" value="{{ c_id|default:0 }}">
  <select name="type">
    <option value="title">Title</option>
    <option value="author">Author</option>
    <option value="subject">Subject</option>
  </select>
  <input type="text" name="search">
  <input type="submit" value="Search">
</form>
<p>Popular subjects:</p>
<ul>
{% for subject in subjects|slice:":8" %}
  <li><a href="/execute_search?type=subject&search={{ subject|urlencode }}">{{ subject|title }}</a></li>
{% endfor %}
</ul>
{% include "footer.html" %}"#;

const EXECUTE_SEARCH: &str = r#"{% include "header.html" %}
<h2>Results for {{ kind }}: &ldquo;{{ query }}&rdquo;</h2>
<table>
{% for item in items %}{% include "item_row.html" %}{% empty %}
<tr><td>No matches.</td></tr>
{% endfor %}
</table>
<p>{{ items|length }} result{{ items|length|pluralize }}.</p>
{% include "footer.html" %}"#;

const SHOPPING_CART: &str = r#"{% include "header.html" %}
<h2>Your shopping cart</h2>
<table>
<tr><th>Title</th><th>Qty</th><th>Each</th><th>Subtotal</th></tr>
{% for line in lines %}
<tr>
  <td>{{ line.title }}</td>
  <td>{{ line.qty }}</td>
  <td align="right">${{ line.cost|floatformat:2 }}</td>
  <td align="right">${{ line.subtotal|floatformat:2 }}</td>
</tr>
{% empty %}
<tr><td>Your cart is empty.</td></tr>
{% endfor %}
</table>
<p>Total: <b>${{ total|floatformat:2 }}</b></p>
<form action="/buy_request" method="get">
  <input type="hidden" name="c_id" value="{{ c_id|default:0 }}">
  <input type="hidden" name="sc_id" value="{{ sc_id }}">
  <input type="submit" value="Checkout">
</form>
{% include "footer.html" %}"#;

const CUSTOMER_REGISTRATION: &str = r#"{% include "header.html" %}
{% if customer %}
  <h2>Welcome back, {{ customer.0.fname }}!</h2>
  <p>Proceed to <a href="/buy_request?c_id={{ c_id }}&sc_id={{ sc_id }}">checkout</a>.</p>
{% else %}
  <h2>Register</h2>
  <form action="/buy_request" method="get">
    <p>First name <input name="fname"> Last name <input name="lname"></p>
    <input type="hidden" name="sc_id" value="{{ sc_id }}">
    <input type="submit" value="Register and continue">
  </form>
{% endif %}
{% include "footer.html" %}"#;

const BUY_REQUEST: &str = r#"{% include "header.html" %}
<h2>Confirm your order</h2>
<p>Shipping to: {{ customer.0.fname }} {{ customer.0.lname }}, {{ address.0.street }},
   {{ address.0.city }} {{ address.0.zip }}</p>
<table>
{% for line in lines %}
<tr><td>{{ line.title }}</td><td>{{ line.qty }}</td>
    <td align="right">${{ line.subtotal|floatformat:2 }}</td></tr>
{% endfor %}
</table>
<p>Order total (with {{ discount }}% member discount): <b>${{ total|floatformat:2 }}</b></p>
<form action="/buy_confirm" method="get">
  <input type="hidden" name="c_id" value="{{ c_id }}">
  <input type="hidden" name="sc_id" value="{{ sc_id }}">
  <input type="submit" value="Place order">
</form>
{% include "footer.html" %}"#;

const BUY_CONFIRM: &str = r#"{% include "header.html" %}
<h2>Thank you for your order!</h2>
<p>Order <b>#{{ order_id }}</b> has been placed.</p>
<p>{{ line_count }} line item{{ line_count|pluralize }}, total
   <b>${{ total|floatformat:2 }}</b>, charged to {{ cc_type }}.</p>
<p><a href="/order_display?c_id={{ c_id }}">View your order</a></p>
{% include "footer.html" %}"#;

const ORDER_INQUIRY: &str = r#"{% include "header.html" %}
<h2>Order inquiry</h2>
<form action="/order_display" method="get">
  <p>Username: <input name="uname" value="user{{ c_id|default:1 }}"></p>
  <input type="hidden" name="c_id" value="{{ c_id|default:0 }}">
  <input type="submit" value="Display last order">
</form>
{% include "footer.html" %}"#;

const ORDER_DISPLAY: &str = r#"{% include "header.html" %}
{% if order %}
  <h2>Order #{{ order.0.id }} ({{ order.0.status }})</h2>
  <p>Placed by {{ customer.0.fname }} {{ customer.0.lname }}; total
     <b>${{ order.0.total|floatformat:2 }}</b>.</p>
  <table>
  <tr><th>Title</th><th>Qty</th></tr>
  {% for line in lines %}
  <tr><td>{{ line.title }}</td><td>{{ line.qty }}</td></tr>
  {% endfor %}
  </table>
{% else %}
  <h2>No orders found</h2>
{% endif %}
{% include "footer.html" %}"#;

const ADMIN_REQUEST: &str = r#"{% include "header.html" %}
<h2>Edit item: {{ item.0.title }}</h2>
<form action="/admin_confirm" method="get">
  <input type="hidden" name="i_id" value="{{ item.0.id }}">
  <input type="hidden" name="c_id" value="{{ c_id|default:0 }}">
  <p>New cost: <input name="cost" value="{{ item.0.cost|floatformat:2 }}"></p>
  <p>New image: <input name="image" value="{{ item.0.thumbnail }}"></p>
  <input type="submit" value="Update item">
</form>
{% include "footer.html" %}"#;

const ADMIN_RESPONSE: &str = r#"{% include "header.html" %}
<h2>Item updated</h2>
<p>{{ item.0.title }} now costs <b>${{ item.0.cost|floatformat:2 }}</b>.</p>
<p>Related items recomputed from recent sales:</p>
<ol>
{% for r in related %}<li>item #{{ r }}</li>{% endfor %}
</ol>
{% include "footer.html" %}"#;

/// Installs every TPC-W template (pages plus shared includes) into a
/// store.
///
/// # Errors
///
/// A [`TemplateError::Parse`] if any template source fails to compile
/// (a programming error caught by tests).
pub fn install_templates(store: &TemplateStore) -> Result<(), TemplateError> {
    let all: &[(&str, &str)] = &[
        ("header.html", HEADER),
        ("footer.html", FOOTER),
        ("item_row.html", ITEM_ROW),
        ("home.html", HOME),
        ("new_products.html", NEW_PRODUCTS),
        ("best_sellers.html", BEST_SELLERS),
        ("product_detail.html", PRODUCT_DETAIL),
        ("search_request.html", SEARCH_REQUEST),
        ("execute_search.html", EXECUTE_SEARCH),
        ("shopping_cart.html", SHOPPING_CART),
        ("customer_registration.html", CUSTOMER_REGISTRATION),
        ("buy_request.html", BUY_REQUEST),
        ("buy_confirm.html", BUY_CONFIRM),
        ("order_inquiry.html", ORDER_INQUIRY),
        ("order_display.html", ORDER_DISPLAY),
        ("admin_request.html", ADMIN_REQUEST),
        ("admin_response.html", ADMIN_RESPONSE),
    ];
    for (name, source) in all {
        store.insert(*name, source)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use staged_templates::{Context, Table, Value};

    #[test]
    fn all_templates_compile() {
        let store = TemplateStore::new();
        install_templates(&store).unwrap();
        assert_eq!(store.len(), 17);
    }

    #[test]
    fn home_renders_with_data() {
        let store = TemplateStore::new();
        install_templates(&store).unwrap();
        let mut ctx = Context::new();
        ctx.insert("title", "Home");
        ctx.insert("c_id", 5);
        let mut customer = Table::new(vec!["fname".into(), "lname".into()]);
        customer.push_row([Value::from("Ada"), Value::from("Lovelace")]);
        ctx.insert("customer", customer);
        let columns = ["id", "title", "fname", "lname", "cost", "thumbnail"];
        let mut promotions = Table::new(columns.map(String::from).to_vec());
        promotions.push_row([
            Value::from(1),
            Value::from("Dune"),
            Value::from("F."),
            Value::from("Herbert"),
            Value::Float(9.99),
            Value::from("/img/thumb_1.gif"),
        ]);
        ctx.insert("promotions", promotions);
        ctx.insert(
            "subjects",
            Value::from(vec![Value::from("SCIENCE-FICTION")]),
        );
        let html = store.render("home.html", &ctx).unwrap();
        assert!(html.contains("Welcome back, Ada Lovelace!"));
        assert!(html.contains("Dune"));
        assert!(html.contains("<td>F. Herbert</td>"));
        assert!(html.contains("$9.99"));
        assert!(html.contains("Science-fiction"));
        assert!(html.contains("</html>"));
    }

    #[test]
    fn cart_empty_branch() {
        let store = TemplateStore::new();
        install_templates(&store).unwrap();
        let mut ctx = Context::new();
        ctx.insert("title", "Cart");
        ctx.insert("lines", Value::List(vec![]));
        ctx.insert("total", Value::Float(0.0));
        ctx.insert("sc_id", 1);
        let html = store.render("shopping_cart.html", &ctx).unwrap();
        assert!(html.contains("Your cart is empty."));
        assert!(html.contains("$0.00"));
    }
}
